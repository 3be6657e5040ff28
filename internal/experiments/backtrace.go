package experiments

import (
	"fmt"

	"backtrace/internal/cluster"
	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/site"
)

// BacktraceRow records the back-trace traffic one scheduling regime spent
// collecting the same planted hub-and-petals garbage structure.
type BacktraceRow struct {
	Mode          string
	TracesStarted int64
	BackCalls     int64
	MemoHits      int64
	Deferred      int64
	PeakInflight  int64
	PeakBatch     int64
	Cycles        int
	Collected     bool
	TracesPerCyc  float64
	CallsPerCyc   float64
}

// BacktraceTraffic is experiment C18: the cost of the trace-storm regime
// versus the trace-traffic engine (multi-suspect batching, Live-verdict
// memoization, and the in-flight admission cap) on a workload built to
// trigger storms.
//
// The planted garbage is a hub-and-petals structure: one garbage chain of
// `hub` objects strung across every site, and `petals` cycles that each run
// through the full hub — petal k is hub[last]→P_k→hub[0]. Every petal
// outref at the hub's tail site shares the same inset (the tail hub inref),
// so their back-trace cones are identical, and every hub hop is itself a
// suspect once the cycle's distance estimates pass the back threshold.
// Distances grow in lockstep (all sites run their local trace before any
// message is delivered), so all suspects cross the threshold in the same
// round — the adversarial §4.7 regime.
//
// A live chain of `liveDepth` cross-site hops hangs from a root alongside,
// deep enough that its tail hops are suspects too: the traces it triggers
// prove Live, which is what the memoization layer short-circuits.
//
// The baseline row runs the trigger with the scheduler knobs off: one trace
// per suspect, no cap, no batching, no memo — a storm of duplicate
// traversals of the same cone.
// The engine row runs MaxInflightTraces=1, TraceBatch=petals, MemoizeLive
// on. Both must collect every planted cycle; the engine must get there
// with ≥5x fewer traces and ≥5x fewer BackCall messages per collected
// cycle (the CheckBacktrace gate).
func BacktraceTraffic(sites, hub, petals, liveDepth int) ([]BacktraceRow, error) {
	var rows []BacktraceRow
	for _, mode := range []string{"baseline", "engine"} {
		opts := cluster.Options{
			NumSites: sites,
			Site: site.Config{
				SuspicionThreshold: 3,
				BackThreshold:      7,
				ThresholdBump:      4,
				AutoBackTrace:      true,
			},
		}
		if mode == "engine" {
			opts.Site.MaxInflightTraces = 1
			opts.Site.TraceBatch = petals
			opts.Site.MemoizeLive = true
		}
		c := cluster.New(opts)

		// Hub chain: hub[i] lives on site (i%sites)+1, so every hop
		// crosses sites. hub's length is a multiple of the site count, so
		// the tail sits on the last site and the petals (on site 1, next
		// to hub[0]) are remote from it.
		hubObjs := make([]ids.Ref, hub)
		for i := range hubObjs {
			hubObjs[i] = c.Site(ids.SiteID(i%sites + 1)).NewObject()
		}
		for i := 0; i+1 < hub; i++ {
			c.MustLink(hubObjs[i], hubObjs[i+1])
		}
		tail := hubObjs[hub-1]
		for k := 0; k < petals; k++ {
			p := c.Site(1).NewObject()
			c.MustLink(tail, p)
			c.MustLink(p, hubObjs[0])
		}

		// Live chain: root@1 → l1@2 → l2@3 → …, deeper than the back
		// threshold so its tail hops become (live) suspects.
		prev := c.Site(1).NewRootObject()
		for i := 0; i < liveDepth; i++ {
			owner := ids.SiteID(i%sites + 1)
			if owner == prev.Site {
				owner = owner%ids.SiteID(sites) + 1
			}
			obj := c.Site(owner).NewObject()
			c.MustLink(prev, obj)
			prev = obj
		}
		c.Settle()

		// Lockstep rounds: every site commits a local trace before any
		// message is delivered, so suspects trigger simultaneously.
		for round := 0; round < 40 && c.GarbageCount() > 0; round++ {
			for _, s := range c.Sites() {
				s.RunLocalTrace()
			}
			c.Settle()
		}

		snap := c.Metrics()
		row := BacktraceRow{
			Mode:          mode,
			TracesStarted: snap.Get(metrics.BackTracesStarted),
			BackCalls:     snap.Get("msg.BackCall"),
			MemoHits:      snap.Get(metrics.BackTraceMemoHits),
			Deferred:      snap.Get(metrics.BackTraceDeferred),
			PeakInflight:  snap.Get(metrics.BackTraceInflight),
			PeakBatch:     snap.Get(metrics.BackTraceBatchSize),
			Cycles:        petals,
			Collected:     c.GarbageCount() == 0,
		}
		if petals > 0 {
			row.TracesPerCyc = float64(row.TracesStarted) / float64(petals)
			row.CallsPerCyc = float64(row.BackCalls) / float64(petals)
		}
		rows = append(rows, row)
		c.Close()
	}
	return rows, nil
}

// BacktraceTable renders BacktraceTraffic rows.
func BacktraceTable(rows []BacktraceRow) *Table {
	t := &Table{
		Title: "C18: back-trace traffic engine vs trace-storm baseline " +
			"(batching + memoization + admission cap)",
		Header: []string{"mode", "traces", "backcalls", "traces/cyc", "calls/cyc",
			"memo", "deferred", "peak batch", "collected"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Mode,
			fmt.Sprint(r.TracesStarted),
			fmt.Sprint(r.BackCalls),
			fmt.Sprintf("%.2f", r.TracesPerCyc),
			fmt.Sprintf("%.2f", r.CallsPerCyc),
			fmt.Sprint(r.MemoHits),
			fmt.Sprint(r.Deferred),
			fmt.Sprint(r.PeakBatch),
			fmt.Sprint(r.Collected),
		})
	}
	return t
}

// CheckBacktrace is the C18 CI gate: both regimes collect every planted
// cycle, and the engine spends at least 5x fewer traces and 5x fewer
// BackCall messages per collected cycle than the storm baseline.
func CheckBacktrace(rows []BacktraceRow) error {
	var base, engine *BacktraceRow
	for i := range rows {
		switch rows[i].Mode {
		case "baseline":
			base = &rows[i]
		case "engine":
			engine = &rows[i]
		}
	}
	if base == nil || engine == nil {
		return fmt.Errorf("check: backtrace rows missing a mode (have %d rows)", len(rows))
	}
	for _, r := range []*BacktraceRow{base, engine} {
		if !r.Collected {
			return fmt.Errorf("check: %s regime left planted garbage uncollected", r.Mode)
		}
	}
	if engine.TracesStarted <= 0 || engine.BackCalls <= 0 {
		return fmt.Errorf("check: engine regime recorded no back-trace work")
	}
	if ratio := float64(base.TracesStarted) / float64(engine.TracesStarted); ratio < 5 {
		return fmt.Errorf("check: traces started per collected cycle improved only %.2fx (want >= 5x): baseline %d, engine %d",
			ratio, base.TracesStarted, engine.TracesStarted)
	}
	if ratio := float64(base.BackCalls) / float64(engine.BackCalls); ratio < 5 {
		return fmt.Errorf("check: BackCall messages per collected cycle improved only %.2fx (want >= 5x): baseline %d, engine %d",
			ratio, base.BackCalls, engine.BackCalls)
	}
	return nil
}
