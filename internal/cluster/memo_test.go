package cluster

import (
	"testing"

	"backtrace/internal/metrics"
	"backtrace/internal/site"
)

// TestMemoizedLiveRacesCommit is the witness for the memoization safety
// argument: a Live verdict cached for an ioref must not keep a cycle alive
// after a mutation plus local-trace commit kills the proving path.
//
// Phase 1 plants a live chain root→c1→…→c4→x with an inter-site cycle
// x<->y hanging off its tail. The cycle's distances climb past the back
// threshold even though it is reachable, so auto-triggered back traces
// prove Live — and with MemoizeLive on, later traces through the shared
// cone answer from the memo (asserted via backtrace.memo_hits).
//
// Phase 2 removes c4→x. The commits that follow bump each site's
// generation, staling every cached Live verdict, so the re-run traces must
// re-traverse, return Garbage, and collect the cycle. A stale memo
// surviving the commit would leave x<->y uncollected forever.
func TestMemoizedLiveRacesCommit(t *testing.T) {
	c := New(Options{
		NumSites: 2,
		Site: site.Config{
			SuspicionThreshold: 2,
			BackThreshold:      3,
			ThresholdBump:      2,
			AutoBackTrace:      true,
			MemoizeLive:        true,
		},
	})
	defer c.Close()
	p := c.Site(1)
	q := c.Site(2)

	root := p.NewRootObject()
	c1 := q.NewObject()
	c2 := p.NewObject()
	c3 := q.NewObject()
	c4 := p.NewObject()
	x := q.NewObject()
	y := p.NewObject()
	c.MustLink(root, c1)
	c.MustLink(c1, c2)
	c.MustLink(c2, c3)
	c.MustLink(c3, c4)
	c.MustLink(c4, x)
	c.MustLink(x, y)
	c.MustLink(y, x)
	c.Settle()

	// Phase 1: distances propagate one hop per commit; by the time in(y)
	// reaches 6 the cycle's iorefs are all past the threshold and the Live
	// traces (and memo hits through the shared cone) have happened.
	c.RunRounds(8)
	if got := c.GarbageCount(); got != 0 {
		t.Fatalf("live phase: %d objects unreachable, want 0", got)
	}
	if !q.ContainsObject(x.Obj) || !p.ContainsObject(y.Obj) {
		t.Fatal("live phase: cycle objects collected while reachable")
	}
	memoHits := c.Metrics().Get(metrics.BackTraceMemoHits)
	if memoHits == 0 {
		t.Fatal("live phase: no memo hits — the cached Live verdict never engaged, witness is vacuous")
	}
	t.Logf("live phase: %d memo hits, %d traces", memoHits,
		c.Metrics().Get(metrics.BackTracesStarted))

	// Phase 2: the mutator kills the proving path. Each subsequent commit
	// bumps the committing site's generation, so every cached Live verdict
	// for the cycle's iorefs is stale by construction.
	if err := p.RemoveReference(c4.Obj, x); err != nil {
		t.Fatal(err)
	}
	if got := c.GarbageCount(); got != 2 {
		t.Fatalf("after cut: %d objects unreachable, want 2 (x, y)", got)
	}

	rounds, collected := c.CollectUntilStable(30)
	t.Logf("collected %d in %d rounds after the cut", collected, rounds)
	if collected != 2 {
		t.Fatalf("collected %d objects after the cut, want 2", collected)
	}
	if got := c.GarbageCount(); got != 0 {
		t.Fatalf("stale memo kept garbage alive: %d unreachable objects remain", got)
	}
	if q.ContainsObject(x.Obj) || p.ContainsObject(y.Obj) {
		t.Fatal("cycle objects still present after collection")
	}
	if got := c.InvariantViolations(); len(got) != 0 {
		t.Fatalf("invariant violations: %v", got)
	}
}
