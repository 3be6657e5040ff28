package cluster

import (
	"fmt"
	"testing"

	"backtrace/internal/site"
)

// TestSteppedRingsCollectWithBenchConfig collects a garbage ring over every
// site of a stepped cluster, at 2 to 12 sites, with the collector knobs the
// benchmark sets (T 3, T2 7, δ 4, cap 4, batches of 8, MemoizeLive). A ring
// takes the same few rounds whatever its size: the distances of its iorefs
// grow by one a round until they cross T2, and one trace then confirms it.
func TestSteppedRingsCollectWithBenchConfig(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 6, 8, 12} {
		t.Run(fmt.Sprintf("sites=%d", n), func(t *testing.T) {
			c := New(Options{NumSites: n, Site: site.Config{
				SuspicionThreshold: 3,
				BackThreshold:      7,
				ThresholdBump:      4,
				AutoBackTrace:      true,
				MaxInflightTraces:  4,
				TraceBatch:         8,
				MemoizeLive:        true,
			}})
			defer c.Close()
			ring := c.BuildRing()

			rounds, collected := c.CollectUntilStable(60)
			if collected != len(ring) || rounds > 5 {
				t.Fatalf("collected %d of the %d-ring in %d rounds, want all in at most 5", collected, n, rounds)
			}
			if got := c.InvariantViolations(); len(got) != 0 {
				t.Fatalf("invariants: %v", got)
			}
		})
	}
}
