package experiments

import (
	"fmt"

	"backtrace/internal/cluster"
	"backtrace/internal/metrics"
	"backtrace/internal/site"
)

// TimelineRow traces a garbage cycle's lifecycle in rounds: when its
// iorefs first crossed the suspicion threshold, when the first back trace
// was triggered, and when it was fully reclaimed.
type TimelineRow struct {
	Sites          int
	T              int // suspicion threshold
	T2             int // back threshold
	RoundSuspected int // first round with every cycle ioref suspected
	RoundTraced    int // first round a back trace started
	RoundCollected int // first round with the cycle fully gone
}

// Timeline measures how the distance heuristic's pacing translates into
// collection latency (Sections 3 and 4.3): a cycle is suspected once
// distances pass T, back-traced once they pass T2, and collected on the
// following round. Everything is measured in rounds (each site traces
// once per round).
func Timeline(sizes []int, t, t2 int) []TimelineRow {
	var rows []TimelineRow
	for _, n := range sizes {
		c := cluster.New(cluster.Options{
			NumSites: n,
			Site: site.Config{
				SuspicionThreshold: t,
				BackThreshold:      t2,
				ThresholdBump:      4,
				AutoBackTrace:      true,
			},
		})
		objs := c.BuildRing()
		row := TimelineRow{Sites: n, T: t, T2: t2}

		for round := 1; round <= 80; round++ {
			tracesBefore := c.Metrics().Get(metrics.BackTracesStarted)
			c.RunRound()

			if row.RoundSuspected == 0 {
				allSuspected := true
				for _, o := range objs {
					if c.Site(o.Site).InrefDistance(o.Obj) <= t {
						allSuspected = false
						break
					}
				}
				if allSuspected {
					row.RoundSuspected = round
				}
			}
			if row.RoundTraced == 0 && c.Metrics().Get(metrics.BackTracesStarted) > tracesBefore {
				row.RoundTraced = round
			}
			if row.RoundCollected == 0 && c.GarbageCount() == 0 {
				row.RoundCollected = round
				break
			}
		}
		rows = append(rows, row)
		c.Close()
	}
	return rows
}

// TimelineTable renders Timeline rows.
func TimelineTable(rows []TimelineRow) *Table {
	t := &Table{
		Title:   "collection timeline: rounds from garbage to reclaimed",
		Header:  []string{"sites", "T", "T2", "suspected", "first trace", "collected"},
		Caption: "distance grows ~sites per round on a ring, so latency shrinks as cycles grow",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.Sites), fmt.Sprint(r.T), fmt.Sprint(r.T2),
			fmt.Sprint(r.RoundSuspected), fmt.Sprint(r.RoundTraced), fmt.Sprint(r.RoundCollected),
		})
	}
	return t
}
