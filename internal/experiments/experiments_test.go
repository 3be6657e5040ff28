package experiments

import (
	"fmt"
	"strings"
	"testing"

	"backtrace/internal/workload"
)

func TestMessagesMatchPaperFormula(t *testing.T) {
	specs := []workload.Spec{
		workload.Ring(2), workload.Ring(4), workload.Ring(5), workload.Ring(8),
		workload.Ring(9), workload.Ring(16), workload.Ring(32),
		workload.DenseCycle(3, 3, 0, 1), workload.DenseCycle(4, 4, 0, 1),
	}
	rows, err := MessagesPerTrace(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(specs) {
		t.Fatalf("rows = %d, want %d", len(rows), len(specs))
	}
	for _, r := range rows {
		if r.Total != r.Predicted {
			t.Errorf("%s: %d messages, paper predicts %d", r.Workload, r.Total, r.Predicted)
		}
		if r.BackCalls != r.BackReplies {
			t.Errorf("%s: calls %d != replies %d", r.Workload, r.BackCalls, r.BackReplies)
		}
	}
	tbl := MessagesTable(rows).String()
	if !strings.Contains(tbl, "2E+P") {
		t.Error("table missing formula")
	}
	t.Log("\n" + tbl)
}

func TestDistanceTheoremHolds(t *testing.T) {
	rows := DistanceConvergence([]int{2, 4, 8}, 8)
	for _, r := range rows {
		if !r.Holds {
			t.Errorf("theorem violated: sites=%d round=%d min=%d", r.Sites, r.Round, r.MinDist)
		}
	}
	tbl := DistanceTable(rows)
	if len(tbl.Rows) != len(rows) {
		t.Error("table row mismatch")
	}
	t.Log("\n" + tbl.String())
}

func TestInsetComparisonShape(t *testing.T) {
	rows := append(InsetComparison(5), InsetComparison(20)...)
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 2 scales x 3 shapes x 2 algorithms", len(rows))
	}
	byShape := make(map[string]map[string]InsetRow)
	for _, r := range rows {
		if byShape[r.Shape] == nil {
			byShape[r.Shape] = make(map[string]InsetRow)
		}
		byShape[r.Shape][r.Algo.String()] = r
	}
	for shape, algos := range byShape {
		ind, bu := algos["independent"], algos["bottom-up"]
		if ind.Visits < bu.Visits {
			t.Errorf("%s: independent visited fewer objects (%d) than bottom-up (%d)",
				shape, ind.Visits, bu.Visits)
		}
		if bu.Visits > int64(bu.Objects)+1 {
			t.Errorf("%s: bottom-up visited %d > objects %d (must scan each once)",
				shape, bu.Visits, bu.Objects)
		}
		if bu.MemoHits == 0 {
			t.Errorf("%s: no memoized unions", shape)
		}
	}
	t.Log("\n" + InsetTable(rows).String())
}

func TestSpaceBoundHolds(t *testing.T) {
	rows, err := SpaceBound([]workload.Spec{
		workload.Ring(3), workload.DenseCycle(3, 4, 5, 1), workload.DenseCycle(3, 6, 8, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Entries > r.Bound {
			t.Errorf("%s site %v: entries %d > bound %d", r.Workload, r.Site, r.Entries, r.Bound)
		}
	}
	t.Log("\n" + SpaceTable(rows).String())
}

func TestThresholdTuningShape(t *testing.T) {
	rows := ThresholdTuning([]int{4, 6, 8, 12, 16, 24})
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].LiveOutcomes == 0 {
		t.Error("low T2 produced no abortive (Live) traces on the live far chain")
	}
	// Each step up in T2 starts no more traces, ends no more of them Live,
	// and collects no sooner.
	for i := 1; i < len(rows); i++ {
		low, high := rows[i-1], rows[i]
		if low.TracesStarted < high.TracesStarted {
			t.Errorf("T2=%d started fewer traces (%d) than T2=%d (%d)",
				low.BackThreshold, low.TracesStarted, high.BackThreshold, high.TracesStarted)
		}
		if high.RoundsToClean < low.RoundsToClean {
			t.Errorf("T2=%d collected sooner (%d) than T2=%d (%d)",
				high.BackThreshold, high.RoundsToClean, low.BackThreshold, low.RoundsToClean)
		}
		if high.LiveOutcomes > low.LiveOutcomes {
			t.Errorf("T2=%d produced more abortive traces than T2=%d", high.BackThreshold, low.BackThreshold)
		}
	}
	t.Log("\n" + ThresholdTable(rows).String())
}

func TestCompareCollectorsCompleteness(t *testing.T) {
	for _, cfg := range [][2]int{{2, 2}, {3, 1}, {4, 2}, {8, 2}} {
		n, extra := cfg[0], cfg[1]
		rows, err := CompareCollectors(n, extra)
		if err != nil {
			t.Fatal(err)
		}
		byName := make(map[string]CompareRow, len(rows))
		for _, r := range rows {
			byName[r.Collector] = r
		}
		for _, name := range []string{"back-tracing", "migration", "hughes", "group-trace"} {
			if byName[name].Collected != n {
				t.Errorf("%d-site cycle: %s collected %d, want %d", n, name, byName[name].Collected, n)
			}
		}
		if byName["local-only"].Collected != 0 {
			t.Errorf("%d-site cycle: local-only collected a cycle", n)
		}
		// Locality: back tracing involves only the cycle's sites.
		if got := byName["back-tracing"].SitesInvolved; got > n {
			t.Errorf("%d-site cycle: back tracing involved %d sites, want <= %d", n, got, n)
		}
		// Hughes keeps paying global traffic after collection.
		if byName["hughes"].SteadyPerRound <= byName["back-tracing"].SteadyPerRound {
			t.Errorf("%d-site cycle: hughes steady cost (%d) should exceed back tracing's (%d)",
				n, byName["hughes"].SteadyPerRound, byName["back-tracing"].SteadyPerRound)
		}
		t.Log("\n" + CompareTable(n, extra, rows).String())
	}
}

func TestLocalityUnderCrashRows(t *testing.T) {
	rows, err := LocalityUnderCrash(25)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]LocalityRow, len(rows))
	for _, r := range rows {
		byName[r.Collector] = r
	}
	bt := byName["back-tracing"]
	if !bt.DisjointCollected {
		t.Error("back tracing failed to collect the cycle disjoint from the crashed site")
	}
	if bt.DependentCollected {
		t.Error("back tracing collected a cycle with a crashed participant")
	}
	hu := byName["hughes"]
	if hu.DisjointCollected {
		t.Error("hughes collected despite a stalled global threshold")
	}
	t.Log("\n" + LocalityTable(rows).String())
}

func TestTimelineOrdering(t *testing.T) {
	rows := Timeline([]int{2, 4, 8, 16}, 3, 7)
	for _, r := range rows {
		if r.RoundSuspected == 0 || r.RoundTraced == 0 || r.RoundCollected == 0 {
			t.Fatalf("lifecycle incomplete: %+v", r)
		}
		if r.RoundSuspected > r.RoundCollected || r.RoundTraced > r.RoundCollected {
			t.Fatalf("lifecycle out of order: %+v", r)
		}
		// On rings of 8 sites and more, one ioref's distance passes T2 in
		// the first round while the ring's minimum is still 2 (C2), so the
		// first trace may start before every ioref is suspected.
		if r.Sites <= 4 && r.RoundSuspected > r.RoundTraced {
			t.Fatalf("lifecycle out of order: %+v", r)
		}
	}
	t.Log("\n" + TimelineTable(rows).String())
}

func TestOverlapShape(t *testing.T) {
	rows := Overlap([]int{2, 4, 8})
	byKey := make(map[string]OverlapRow)
	for _, r := range rows {
		byKey[fmt.Sprintf("%d/%s", r.Sites, r.Mode)] = r
		if !r.Collected {
			t.Errorf("%d/%s: cycle not collected", r.Sites, r.Mode)
		}
	}
	for _, n := range []int{2, 4, 8} {
		inter := byKey[fmt.Sprintf("%d/interleaved", n)]
		lock := byKey[fmt.Sprintf("%d/lockstep", n)]
		if lock.TracesStarted < inter.Garbage {
			t.Errorf("n=%d: lockstep started fewer traces (%d) than interleaved confirmed (%d)",
				n, lock.TracesStarted, inter.Garbage)
		}
		if lock.TracesStarted != int64(n) {
			t.Errorf("n=%d: lockstep traces = %d, want %d (all sites trigger at once)",
				n, lock.TracesStarted, n)
		}
	}
	t.Log("\n" + OverlapTable(rows).String())
}

// TestTelemetryParallelEdgesGroupCalls: on a site pair crossed by k
// parallel references, the k back steps that cross it in one direction
// share one BackCall, so W < E; the span tree's handled-call count agrees
// with the BackCall counter and the trace costs exactly 2W+P−1.
func TestTelemetryParallelEdgesGroupCalls(t *testing.T) {
	row, err := TelemetryComplexity(workload.ParallelPair(4))
	if err != nil {
		t.Fatal(err)
	}
	if row.InterSite != 5 || row.Sites != 2 {
		t.Fatalf("pair-4 has E = %d, P = %d; want 5, 2", row.InterSite, row.Sites)
	}
	if row.Crossings != 2 || int64(row.Crossings) != row.BackCalls {
		t.Errorf("span tree W = %d, BackCalls = %d; want both 2", row.Crossings, row.BackCalls)
	}
	if row.Total != row.Predicted || row.Total != 5 {
		t.Errorf("total = %d, 2W+P-1 = %d, want 5 (2E+P-1 would be %d)", row.Total, row.Predicted, row.PaperBound)
	}
	if row.Participants != 2 {
		t.Errorf("span tree has %d participants, want 2", row.Participants)
	}
}

func TestTelemetryComplexityMatchesPaperFormula(t *testing.T) {
	var rows []TelemetryRow
	for _, n := range []int{3, 6, 12} {
		row, err := TelemetryComplexity(workload.Ring(n))
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
		// n-site ring: E = W = n, P = n → n calls, n replies, n-1 reports,
		// 3n-1 total (17 on the 6-site ring).
		if row.BackCalls != int64(n) || row.BackReplies != int64(n) || row.Reports != int64(n-1) {
			t.Errorf("%s: counts = calls %d replies %d reports %d, want %d/%d/%d",
				row.Workload, row.BackCalls, row.BackReplies, row.Reports, n, n, n-1)
		}
		if row.Total != row.Predicted || row.Total != row.PaperBound || row.Total != int64(3*n-1) {
			t.Errorf("%s: total = %d, 2W+P-1 = %d, 2E+P-1 = %d, want %d",
				row.Workload, row.Total, row.Predicted, row.PaperBound, 3*n-1)
		}
		if row.Crossings != row.InterSite {
			t.Errorf("%s: span tree W = %d, want E = %d on a ring", row.Workload, row.Crossings, row.InterSite)
		}
		// The span tree independently reports the same participant set.
		if row.Participants != row.Sites {
			t.Errorf("%s: span tree has %d participants, workload touches %d sites",
				row.Workload, row.Participants, row.Sites)
		}
		if row.RTTSamples < 1 {
			t.Errorf("%s: rtt samples = %d, want >= 1", row.Workload, row.RTTSamples)
		}
	}
	// The parallel pair's W < E is TestTelemetryParallelEdgesGroupCalls's;
	// here it completes the table, still at exactly 2W+P-1.
	pair, err := TelemetryComplexity(workload.ParallelPair(4))
	if err != nil {
		t.Fatal(err)
	}
	if pair.Total != pair.Predicted {
		t.Errorf("%s: total = %d, 2W+P-1 = %d", pair.Workload, pair.Total, pair.Predicted)
	}
	tbl := TelemetryTable(append(rows, pair)).String()
	if !strings.Contains(tbl, "registry") {
		t.Error("table missing title")
	}
	t.Log("\n" + tbl)
}
