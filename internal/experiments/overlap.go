package experiments

import (
	"fmt"

	"backtrace/internal/cluster"
	"backtrace/internal/metrics"
	"backtrace/internal/site"
)

// OverlapRow records how many back traces were triggered on one garbage
// cycle under a given scheduling regime.
type OverlapRow struct {
	Sites         int
	Mode          string
	TracesStarted int64
	Garbage       int64
	Live          int64
	Messages      int64
	Collected     bool
}

// Overlap measures the paper's Section 4.7 argument: multiple back traces
// MAY be triggered concurrently on one cycle, but in practice the first
// trace spreads (milliseconds) much faster than local traces recur
// (minutes), so overlap is rare.
//
//   - "interleaved" mode delivers messages after every site's local trace
//     — the realistic regime, where the first trace visits the whole cycle
//     before any other site's distance crosses its back threshold;
//   - "lockstep" mode runs every site's local trace before delivering
//     anything — the adversarial regime where all sites cross the
//     threshold in the same instant and every one starts a trace.
//
// Either way the cycle must be collected and the duplicate traces must
// resolve harmlessly (visit marks are per-trace).
func Overlap(sizes []int) []OverlapRow {
	var rows []OverlapRow
	for _, n := range sizes {
		for _, mode := range []string{"interleaved", "lockstep"} {
			c := cluster.New(cluster.Options{
				NumSites: n,
				Site: site.Config{
					SuspicionThreshold: 3,
					BackThreshold:      7,
					ThresholdBump:      4,
					AutoBackTrace:      true,
				},
			})
			c.BuildRing()

			for round := 0; round < 40 && c.GarbageCount() > 0; round++ {
				switch mode {
				case "interleaved":
					c.RunRound()
				case "lockstep":
					for _, s := range c.Sites() {
						s.RunLocalTrace() // no delivery in between
					}
					c.Settle()
				}
			}
			snap := c.Metrics()
			rows = append(rows, OverlapRow{
				Sites:         n,
				Mode:          mode,
				TracesStarted: snap.Get(metrics.BackTracesStarted),
				Garbage:       snap.Get(metrics.BackTracesGarbage),
				Live:          snap.Get(metrics.BackTracesLive),
				Messages:      snap.Get("msg.BackCall") + snap.Get("msg.BackReply") + snap.Get("msg.Report"),
				Collected:     c.GarbageCount() == 0,
			})
			c.Close()
		}
	}
	return rows
}

// OverlapTable renders Overlap rows.
func OverlapTable(rows []OverlapRow) *Table {
	t := &Table{
		Title:   "C9: concurrent back traces on one cycle (Section 4.7)",
		Header:  []string{"sites", "schedule", "traces", "garbage", "live", "backtr msgs", "collected"},
		Caption: "interleaved = first trace spreads before others trigger; lockstep = adversarial simultaneous triggering; both must collect",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.Sites), r.Mode,
			fmt.Sprint(r.TracesStarted), fmt.Sprint(r.Garbage), fmt.Sprint(r.Live),
			fmt.Sprint(r.Messages), fmt.Sprint(r.Collected),
		})
	}
	return t
}
