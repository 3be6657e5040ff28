package cluster

import (
	"testing"

	"backtrace/internal/ids"
)

// TestShardedConcurrentStress is TestConcurrentStress over sharded site
// internals: 8 heap/ref-table shards per site, so the read-lock fast-path
// mutators, the per-shard locks, the concurrent shard snapshots, and the
// off-lock mark all run under the race detector at once.
func TestShardedConcurrentStress(t *testing.T) {
	opts := defaultOpts(4)
	opts.Parallel = true
	opts.Site.InboxSize = 8
	opts.Site.Shards = 8
	runConcurrentStress(t, opts)
}

// TestShardedRoundMatchesSerial re-runs the cross-site ring collection with
// sharded sites: results must match the unsharded collectors exactly —
// every garbage object reclaimed, the live chain untouched, no invariant
// violations.
func TestShardedRoundMatchesSerial(t *testing.T) {
	opts := defaultOpts(4)
	opts.Parallel = true
	opts.Site.Shards = 4
	c := New(opts)
	defer c.Close()

	root := c.Site(1).NewRootObject()
	prev := root
	for i := 2; i <= 4; i++ {
		n := c.Site(ids.SiteID(i)).NewObject()
		c.MustLink(prev, n)
		prev = n
	}
	ring := c.BuildRing()

	rounds, collected := c.CollectUntilStable(40)
	if g := c.GarbageCount(); g != 0 {
		t.Fatalf("%d garbage objects remain after %d rounds (%d collected)", g, rounds, collected)
	}
	if collected != len(ring) {
		t.Fatalf("collected %d, want %d", collected, len(ring))
	}
	if !c.Site(1).ContainsObject(root.Obj) || !c.Site(4).ContainsObject(prev.Obj) {
		t.Fatal("live chain was collected")
	}
	if got := c.InvariantViolations(); len(got) != 0 {
		t.Fatalf("invariants: %v", got)
	}
}
