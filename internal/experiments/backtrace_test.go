package experiments

import "testing"

// TestBacktraceExperimentGate runs the C18 experiment at the parameters
// EXPERIMENTS.md publishes, pushes the rows through the CheckBacktrace
// gate and logs the C18 table: both regimes collect every planted cycle,
// and the engine spends >=5x fewer traces and BackCall messages than the
// storm baseline.
func TestBacktraceExperimentGate(t *testing.T) {
	rows, err := BacktraceTraffic(4, 40, 12, 12)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + BacktraceTable(rows).String())
	if err := CheckBacktrace(rows); err != nil {
		t.Fatal(err)
	}
}

// TestCheckBacktraceRejects exercises the gate's failure arms so a broken
// experiment cannot silently pass CI.
func TestCheckBacktraceRejects(t *testing.T) {
	good := []BacktraceRow{
		{Mode: "baseline", TracesStarted: 56, BackCalls: 2631, Collected: true},
		{Mode: "engine", TracesStarted: 9, BackCalls: 228, Collected: true},
	}
	if err := CheckBacktrace(good); err != nil {
		t.Fatalf("good rows rejected: %v", err)
	}

	if err := CheckBacktrace(good[:1]); err == nil {
		t.Error("missing engine row passed the gate")
	}

	uncollected := append([]BacktraceRow(nil), good...)
	uncollected[1].Collected = false
	if err := CheckBacktrace(uncollected); err == nil {
		t.Error("uncollected garbage passed the gate")
	}

	idle := append([]BacktraceRow(nil), good...)
	idle[1].TracesStarted = 0
	if err := CheckBacktrace(idle); err == nil {
		t.Error("engine regime with no work passed the gate")
	}

	weakTraces := append([]BacktraceRow(nil), good...)
	weakTraces[1].TracesStarted = 20 // only 2.8x
	if err := CheckBacktrace(weakTraces); err == nil {
		t.Error("sub-5x traces reduction passed the gate")
	}

	weakCalls := append([]BacktraceRow(nil), good...)
	weakCalls[1].BackCalls = 1000 // only 2.6x
	if err := CheckBacktrace(weakCalls); err == nil {
		t.Error("sub-5x BackCall reduction passed the gate")
	}
}
