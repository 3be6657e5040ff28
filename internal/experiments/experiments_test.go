package experiments

import (
	"fmt"
	"strings"
	"testing"

	"backtrace/internal/workload"
)

func TestMessagesMatchPaperFormula(t *testing.T) {
	specs := []workload.Spec{
		workload.Ring(2), workload.Ring(5), workload.Ring(9),
		workload.DenseCycle(3, 3, 0, 1),
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
	if tbl := MessagesTable(rows); !strings.Contains(tbl.String(), "2E+P") {
		t.Error("table missing formula")
	}
}

func TestDistanceTheoremHolds(t *testing.T) {
	rows := DistanceConvergence([]int{2, 4}, 6)
	for _, r := range rows {
		if !r.Holds {
			t.Errorf("theorem violated: sites=%d round=%d min=%d", r.Sites, r.Round, r.MinDist)
		}
	}
	if tbl := DistanceTable(rows); len(tbl.Rows) != len(rows) {
		t.Error("table row mismatch")
	}
}

func TestInsetComparisonShape(t *testing.T) {
	rows := InsetComparison(5)
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 3 shapes x 2 algorithms", len(rows))
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
	_ = InsetTable(rows).String()
}

func TestSpaceBoundHolds(t *testing.T) {
	rows, err := SpaceBound([]workload.Spec{workload.Ring(3), workload.DenseCycle(3, 4, 5, 1)})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Entries > r.Bound {
			t.Errorf("%s site %v: entries %d > bound %d", r.Workload, r.Site, r.Entries, r.Bound)
		}
	}
	_ = SpaceTable(rows).String()
}

func TestThresholdTuningShape(t *testing.T) {
	rows := ThresholdTuning([]int{4, 16})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	low, high := rows[0], rows[1]
	if low.TracesStarted < high.TracesStarted {
		t.Errorf("low T2 started fewer traces (%d) than high T2 (%d)",
			low.TracesStarted, high.TracesStarted)
	}
	if high.RoundsToClean < low.RoundsToClean {
		t.Errorf("high T2 collected sooner (%d) than low T2 (%d)",
			high.RoundsToClean, low.RoundsToClean)
	}
	if low.LiveOutcomes == 0 {
		t.Error("low T2 produced no abortive (Live) traces on the live far chain")
	}
	if high.LiveOutcomes > low.LiveOutcomes {
		t.Error("high T2 produced more abortive traces than low T2")
	}
	_ = ThresholdTable(rows).String()
}

func TestCompareCollectorsCompleteness(t *testing.T) {
	rows, err := CompareCollectors(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]CompareRow, len(rows))
	for _, r := range rows {
		byName[r.Collector] = r
	}
	for _, name := range []string{"back-tracing", "migration", "hughes", "group-trace"} {
		if byName[name].Collected != 3 {
			t.Errorf("%s collected %d, want 3", name, byName[name].Collected)
		}
	}
	if byName["local-only"].Collected != 0 {
		t.Error("local-only collected a cycle")
	}
	// Locality: back tracing involves only the cycle's sites.
	if got := byName["back-tracing"].SitesInvolved; got > 3 {
		t.Errorf("back tracing involved %d sites, want <= 3", got)
	}
	// Hughes keeps paying global traffic after collection.
	if byName["hughes"].SteadyPerRound <= byName["back-tracing"].SteadyPerRound {
		t.Errorf("hughes steady cost (%d) should exceed back tracing's (%d)",
			byName["hughes"].SteadyPerRound, byName["back-tracing"].SteadyPerRound)
	}
	_ = CompareTable(3, 1, rows).String()
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
	_ = LocalityTable(rows).String()
}

func TestTimelineOrdering(t *testing.T) {
	rows := Timeline([]int{2, 4}, 3, 7)
	for _, r := range rows {
		if r.RoundSuspected == 0 || r.RoundTraced == 0 || r.RoundCollected == 0 {
			t.Fatalf("lifecycle incomplete: %+v", r)
		}
		if !(r.RoundSuspected <= r.RoundTraced && r.RoundTraced <= r.RoundCollected) {
			t.Fatalf("lifecycle out of order: %+v", r)
		}
	}
	_ = TimelineTable(rows).String()
}

func TestOverlapShape(t *testing.T) {
	rows := Overlap([]int{2, 4})
	byKey := make(map[string]OverlapRow)
	for _, r := range rows {
		byKey[fmt.Sprintf("%d/%s", r.Sites, r.Mode)] = r
		if !r.Collected {
			t.Errorf("%d/%s: cycle not collected", r.Sites, r.Mode)
		}
	}
	for _, n := range []int{2, 4} {
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
	_ = OverlapTable(rows).String()
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

func TestHypertextRuns(t *testing.T) {
	row, err := Hypertext(8, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	if row.Garbage == 0 {
		t.Skip("seed produced no orphans")
	}
	if row.Collected != row.Garbage {
		t.Fatalf("collected %d of %d", row.Collected, row.Garbage)
	}
	_ = HypertextTable([]HypertextRow{row}).String()
}

func TestTelemetryComplexityMatchesPaperFormula(t *testing.T) {
	row, err := TelemetryComplexity(workload.Ring(6))
	if err != nil {
		t.Fatal(err)
	}
	// 6-site ring: E = W = 6, P = 6 → 6 calls, 6 replies, 5 reports, 17 total.
	if row.BackCalls != 6 || row.BackReplies != 6 || row.Reports != 5 {
		t.Errorf("counts = calls %d replies %d reports %d, want 6/6/5",
			row.BackCalls, row.BackReplies, row.Reports)
	}
	if row.Total != row.Predicted || row.Total != row.PaperBound || row.Total != 17 {
		t.Errorf("total = %d, 2W+P-1 = %d, 2E+P-1 = %d, want 17", row.Total, row.Predicted, row.PaperBound)
	}
	if row.Crossings != row.InterSite {
		t.Errorf("span tree W = %d, want E = %d on a ring", row.Crossings, row.InterSite)
	}
	// The span tree independently reports the same participant set.
	if row.Participants != row.Sites {
		t.Errorf("span tree has %d participants, workload touches %d sites",
			row.Participants, row.Sites)
	}
	if row.RTTSamples < 1 {
		t.Errorf("rtt samples = %d, want >= 1", row.RTTSamples)
	}
	if tbl := TelemetryTable([]TelemetryRow{row}); !strings.Contains(tbl.String(), "registry") {
		t.Error("table missing title")
	}
}
