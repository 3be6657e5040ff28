package experiments

import (
	"fmt"

	"backtrace/internal/obs"
	"backtrace/internal/workload"
)

// --- C13: message complexity re-verified through the typed registry --------

// TelemetryRow is one row of the registry-based complexity experiment: the
// per-type message counts read from the typed metrics snapshot, and the
// participant and crossing counts read from the assembled span tree, for
// one back trace over a garbage cycle.
type TelemetryRow struct {
	Workload     string
	Sites        int   // P: participant sites
	InterSite    int   // E: inter-site references on the cycle
	BackCalls    int64 // from snapshot counter msg.BackCall
	BackReplies  int64 // from snapshot counter msg.BackReply
	Reports      int64 // from snapshot counter msg.Report
	Total        int64
	PaperBound   int64 // 2E + (P-1)
	Predicted    int64 // 2W + (P-1)
	Participants int   // closed participant spans in the trace's tree
	Crossings    int   // W: BackCalls handled, summed over the tree's participant spans
	RTTSamples   int64 // backtrace.rtt_seconds observations for the trace
}

// TelemetryComplexity repeats the C1 measurement for a garbage cycle, but
// through the redesigned telemetry surface: message counts come from typed
// registry snapshots (Cluster.Metrics) rather than the legacy counter map,
// and the participant count P and the crossing count W — one per
// (handled call, destination site) pair, since a site sends one BackCall
// per destination for all the steps one call fans out to — are read off
// the back trace's assembled span tree rather than trusted from the
// workload spec. The trace must cost exactly 2W+P−1 messages (the
// initiator reports to itself locally); on a ring every hop crosses a
// distinct site pair, so W = E and that is the paper's 2E+P−1.
func TelemetryComplexity(spec workload.Spec) (TelemetryRow, error) {
	c := clusterFor(spec.Sites, false)
	defer c.Close()
	if _, err := workload.Build(c, spec); err != nil {
		return TelemetryRow{}, err
	}
	c.RunRounds(10) // propagate distances until the ring is suspected
	before := c.Metrics()

	started := false
	for _, s := range c.Sites() {
		for _, o := range s.Outrefs() {
			if !o.Clean {
				if _, ok := s.StartBackTrace(o.Target); ok {
					started = true
				}
				break
			}
		}
		if started {
			break
		}
	}
	if !started {
		return TelemetryRow{}, fmt.Errorf("telemetry: no suspected outref on %s", spec.Name)
	}
	c.Settle()
	after := c.Metrics()

	e := spec.InterSiteEdges()
	p := spec.SitesTouched()
	row := TelemetryRow{
		Workload:    spec.Name,
		Sites:       p,
		InterSite:   e,
		BackCalls:   after.Get("msg.BackCall") - before.Get("msg.BackCall"),
		BackReplies: after.Get("msg.BackReply") - before.Get("msg.BackReply"),
		Reports:     after.Get("msg.Report") - before.Get("msg.Report"),
		PaperBound:  int64(2*e + p - 1),
		RTTSamples: after.Histograms[obs.MetricBackTraceRTT].Count -
			before.Histograms[obs.MetricBackTraceRTT].Count,
	}
	row.Total = row.BackCalls + row.BackReplies + row.Reports

	// Read P and W off the span tree the collector assembled for the
	// garbage trace (distance propagation may have run earlier Live traces,
	// so pick the complete garbage-verdict tree).
	for _, tree := range c.Spans().Trees() {
		if tree.Root != nil && tree.Complete() && tree.Root.Verdict == 0 /* garbage */ {
			row.Participants = len(tree.Participants)
			row.Crossings = 0
			for _, sp := range tree.Participants {
				row.Crossings += sp.Hops
			}
		}
	}
	row.Predicted = int64(2*row.Crossings + p - 1)
	return row, nil
}

// TelemetryTable renders a TelemetryComplexity row.
func TelemetryTable(rows []TelemetryRow) *Table {
	t := &Table{
		Title: "C13: message complexity via the typed registry and span trees",
		Header: []string{"workload", "P(sites)", "E(refs)", "calls", "replies",
			"reports", "total", "2E+P-1", "span W", "2W+P-1", "span-participants", "rtt-samples"},
		Caption: "typed Cluster.Metrics() diffs; P and W (BackCalls handled) read off the assembled span tree",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Workload,
			fmt.Sprint(r.Sites), fmt.Sprint(r.InterSite),
			fmt.Sprint(r.BackCalls), fmt.Sprint(r.BackReplies), fmt.Sprint(r.Reports),
			fmt.Sprint(r.Total), fmt.Sprint(r.PaperBound),
			fmt.Sprint(r.Crossings), fmt.Sprint(r.Predicted),
			fmt.Sprint(r.Participants), fmt.Sprint(r.RTTSamples),
		})
	}
	return t
}
