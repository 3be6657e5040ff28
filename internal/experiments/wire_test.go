package experiments

import "testing"

// TestWireExperimentGate runs the C17 experiment at reduced iterations and
// pushes the rows through the same gate CI uses (dgcbench -exp wire -check):
// binary frames compact and allocation-light, back traces exactly 2E+P-1
// with and without batching, and batching coalescing frames without
// changing collection outcomes.
func TestWireExperimentGate(t *testing.T) {
	codecRows, err := WireCodecBench(200)
	if err != nil {
		t.Fatal(err)
	}
	batchRows, err := WireBatch(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckWire(codecRows, batchRows); err != nil {
		t.Fatal(err)
	}
	for _, r := range codecRows {
		t.Logf("%s: %.0f msgs/sec, %.1f bytes/msg, %.2f allocs/op",
			r.Codec, r.MsgsPerSec, r.BytesPerMsg, r.AllocsPerOp)
	}
	for _, r := range batchRows {
		t.Logf("%s: trace %d/%d, collected %d, frames %d for %d logical",
			r.Setting, r.BackMsgs, r.Predicted, r.Collected, r.Frames, r.Logical)
	}
}

// TestCheckWireRejects exercises the gate's failure arms so a broken
// experiment cannot silently pass CI.
func TestCheckWireRejects(t *testing.T) {
	goodCodec := []WireCodecRow{
		{Codec: "binary", MsgsPerSec: 5000, BytesPerMsg: 12.3, AllocsPerOp: 3},
	}
	goodBatch := []WireBatchRow{
		{Setting: "unbatched", BackMsgs: 17, Predicted: 17, Collected: 8, Logical: 58, Frames: 58, Bytes: 426},
		{Setting: "batched", BackMsgs: 17, Predicted: 17, Collected: 8, Logical: 58, Frames: 47},
	}
	if err := CheckWire(goodCodec, goodBatch); err != nil {
		t.Fatalf("good rows rejected: %v", err)
	}

	if err := CheckWire(nil, goodBatch); err == nil {
		t.Error("missing binary row passed the gate")
	}

	bloated := append([]WireCodecRow(nil), goodCodec...)
	bloated[0].BytesPerMsg = 13.6
	if err := CheckWire(bloated, goodBatch); err == nil {
		t.Error("bloated binary frames passed the gate")
	}

	allocHeavy := append([]WireCodecRow(nil), goodCodec...)
	allocHeavy[0].AllocsPerOp = 40
	if err := CheckWire(allocHeavy, goodBatch); err == nil {
		t.Error("alloc-heavy binary codec passed the gate")
	}

	wordy := []WireBatchRow{goodBatch[0], goodBatch[1]}
	wordy[0].Bytes = 427
	if err := CheckWire(goodCodec, wordy); err == nil {
		t.Error("unbatched collection over its byte ceiling passed the gate")
	}

	inexact := []WireBatchRow{goodBatch[0], goodBatch[1]}
	inexact[1].BackMsgs = 18
	if err := CheckWire(goodCodec, inexact); err == nil {
		t.Error("inexact batched trace count passed the gate")
	}

	uncoalesced := []WireBatchRow{goodBatch[0], {Setting: "batched", BackMsgs: 17, Predicted: 17, Collected: 8, Logical: 58, Frames: 58}}
	if err := CheckWire(goodCodec, uncoalesced); err == nil {
		t.Error("uncoalesced batched run passed the gate")
	}

	divergent := []WireBatchRow{goodBatch[0], {Setting: "batched", BackMsgs: 17, Predicted: 17, Collected: 7, Logical: 58, Frames: 47}}
	if err := CheckWire(goodCodec, divergent); err == nil {
		t.Error("divergent collection outcome passed the gate")
	}
}
