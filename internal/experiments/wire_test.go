package experiments

import "testing"

// TestWireExperimentGate runs the C17 experiment at the parameters
// EXPERIMENTS.md publishes, pushes the rows through the CheckWire gate and
// logs the C17b table: back traces exactly 2E+P-1 with and without
// batching, the unbatched bytes within their ceiling, and batching
// coalescing frames without changing collection outcomes.
func TestWireExperimentGate(t *testing.T) {
	batchRows, err := WireBatch(6)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + WireBatchTable(batchRows).String())
	if err := CheckWire(batchRows); err != nil {
		t.Fatal(err)
	}
}

// TestCheckWireRejects exercises the gate's failure arms so a broken
// experiment cannot silently pass CI.
func TestCheckWireRejects(t *testing.T) {
	goodBatch := []WireBatchRow{
		{Setting: "unbatched", BackMsgs: 17, Predicted: 17, Collected: 8, Logical: 58, Frames: 58, Bytes: 423},
		{Setting: "batched", BackMsgs: 17, Predicted: 17, Collected: 8, Logical: 58, Frames: 47},
	}
	if err := CheckWire(goodBatch); err != nil {
		t.Fatalf("good rows rejected: %v", err)
	}

	if err := CheckWire(nil); err == nil {
		t.Error("missing batch rows passed the gate")
	}

	wordy := []WireBatchRow{goodBatch[0], goodBatch[1]}
	wordy[0].Bytes = 424
	if err := CheckWire(wordy); err == nil {
		t.Error("unbatched collection over its byte ceiling passed the gate")
	}

	inexact := []WireBatchRow{goodBatch[0], goodBatch[1]}
	inexact[1].BackMsgs = 18
	if err := CheckWire(inexact); err == nil {
		t.Error("inexact batched trace count passed the gate")
	}

	uncoalesced := []WireBatchRow{goodBatch[0], {Setting: "batched", BackMsgs: 17, Predicted: 17, Collected: 8, Logical: 58, Frames: 58}}
	if err := CheckWire(uncoalesced); err == nil {
		t.Error("uncoalesced batched run passed the gate")
	}

	divergent := []WireBatchRow{goodBatch[0], {Setting: "batched", BackMsgs: 17, Predicted: 17, Collected: 7, Logical: 58, Frames: 47}}
	if err := CheckWire(divergent); err == nil {
		t.Error("divergent collection outcome passed the gate")
	}
}

// TestCheckWireRejectsUnbatchedFrameMismatch covers the one failure arm
// TestCheckWireRejects leaves out: without batching, every logical message
// is its own frame.
func TestCheckWireRejectsUnbatchedFrameMismatch(t *testing.T) {
	rows := []WireBatchRow{
		{Setting: "unbatched", BackMsgs: 17, Predicted: 17, Collected: 8, Logical: 58, Frames: 57, Bytes: 423},
		{Setting: "batched", BackMsgs: 17, Predicted: 17, Collected: 8, Logical: 58, Frames: 47},
	}
	if err := CheckWire(rows); err == nil {
		t.Error("unbatched run with fewer frames than logical messages passed the gate")
	}
}
