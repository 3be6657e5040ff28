package cluster

import (
	"testing"

	"backtrace/internal/ids"
)

// TestShardedConcurrentStress is TestConcurrentStress over sharded site
// internals: 8 heap/ref-table shards per site and the work-stealing
// parallel marker, so the read-lock fast-path mutators, the per-shard
// locks, the concurrent shard snapshots, and the CAS-min mark all run
// under the race detector at once.
func TestShardedConcurrentStress(t *testing.T) {
	opts := defaultOpts(4)
	opts.Parallel = true
	opts.Site.InboxSize = 8
	opts.Site.Shards = 8
	opts.Site.TraceWorkers = 4
	runConcurrentStress(t, opts)
}

// TestShardedRoundMatchesSerial re-runs the cross-site ring collection with
// sharded sites and parallel marking: results must match the unsharded
// collectors exactly — every garbage object reclaimed, the live chain
// untouched, no invariant violations.
func TestShardedRoundMatchesSerial(t *testing.T) {
	for _, workers := range []int{1, 4} {
		opts := defaultOpts(4)
		opts.Parallel = true
		opts.Site.Shards = 4
		opts.Site.TraceWorkers = workers
		c := New(opts)

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
			t.Fatalf("workers=%d: %d garbage objects remain after %d rounds (%d collected)",
				workers, g, rounds, collected)
		}
		if collected != len(ring) {
			t.Fatalf("workers=%d: collected %d, want %d", workers, collected, len(ring))
		}
		if !c.Site(1).ContainsObject(root.Obj) || !c.Site(4).ContainsObject(prev.Obj) {
			t.Fatalf("workers=%d: live chain was collected", workers)
		}
		if got := c.InvariantViolations(); len(got) != 0 {
			t.Fatalf("workers=%d: invariants: %v", workers, got)
		}
		c.Close()
	}
}
