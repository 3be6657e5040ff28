package cluster

import (
	"testing"

	"backtrace/internal/tracer"
)

// TestAllOptionCombinations runs the canonical ring-plus-live workload
// under every combination of the optional features (trace scheduler,
// outset algorithm) and asserts identical collection semantics:
// the options change costs, never outcomes. The scheduler axis compares the
// paper's trigger ("fixed": one trace per suspect, under a cap no run
// reaches) with the site's default, which the benchmark runs ("scheduled":
// cap 4, batches of 8).
func TestAllOptionCombinations(t *testing.T) {
	schedulers := []struct {
		name               string
		maxInflight, batch int
	}{
		{"fixed", 1 << 20, 1},
		{"scheduled", 0, 0},
	}
	for _, sched := range schedulers {
		for _, algo := range []tracer.OutsetAlgorithm{tracer.AlgoBottomUp, tracer.AlgoIndependent} {
			// "plain": no session layer; the oracle test alternates Reliable.
			t.Run("plain/"+sched.name+"/"+algo.String(), func(t *testing.T) {
				opts := defaultOpts(3)
				opts.Site.MaxInflightTraces = sched.maxInflight
				opts.Site.TraceBatch = sched.batch
				opts.Site.OutsetAlgorithm = algo
				c := New(opts)
				defer c.Close()

				root := c.Site(1).NewRootObject()
				live := c.Site(2).NewObject()
				c.MustLink(root, live)
				ring := c.BuildRing()

				rounds, collected := c.CollectUntilStable(40)
				if collected != 3 {
					t.Fatalf("collected %d in %d rounds, want the 3-ring", collected, rounds)
				}
				if !c.Site(1).ContainsObject(root.Obj) || !c.Site(2).ContainsObject(live.Obj) {
					t.Fatal("live object collected")
				}
				for _, o := range ring {
					if c.Site(o.Site).ContainsObject(o.Obj) {
						t.Fatalf("ring member %v survived", o)
					}
				}
				if got := c.InvariantViolations(); len(got) != 0 {
					t.Fatalf("invariants: %v", got)
				}
			})
		}
	}
}
