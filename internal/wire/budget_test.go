package wire

import (
	"fmt"
	"testing"

	"backtrace/internal/ids"
	"backtrace/internal/msg"
)

// wireMix is the protocol traffic the codec budget is measured on: one
// envelope per message kind the collector actually exchanges, with
// collection-typed fields populated, plus a session-layer batch — roughly
// the distribution a busy link carries.
func wireMix() []msg.Envelope {
	mk := func(m msg.Message) msg.Envelope { return msg.Envelope{From: 3, To: 9, M: m} }
	return []msg.Envelope{
		mk(msg.RefTransfer{Payload: ids.MakeRef(3, 77), Pinner: 2}),
		mk(msg.Insert{Target: ids.MakeRef(4, 1005), Holder: 3, Pinner: 2}),
		mk(msg.InsertAck{Target: ids.MakeRef(4, 1005)}),
		mk(msg.ReleasePin{Target: ids.MakeRef(1, 9)}),
		mk(msg.Update{
			Removals: []ids.ObjID{5, 9, 1 << 20},
			Distances: []msg.DistanceUpdate{
				{Obj: 5, Distance: 0}, {Obj: 1 << 19, Distance: 12}, {Obj: 7, Distance: 3},
			},
			Holds: []ids.ObjID{1, 2, 3},
		}),
		mk(msg.BackCall{
			Trace: ids.TraceID{Initiator: 6, Seq: 21},
			Steps: []msg.BackStep{{Caller: 19, Outref: 42}},
		}),
		mk(msg.BackReply{
			Trace: ids.TraceID{Initiator: 6, Seq: 7},
			Results: []msg.BackResult{
				{Caller: 19, Result: msg.VerdictLive, Participants: []ids.SiteID{1, 5, 9}},
			},
		}),
		mk(msg.Report{Trace: ids.TraceID{Initiator: 1, Seq: 2}, Outcome: msg.VerdictGarbage}),
		mk(msg.LinkBatch{
			Epoch: 2, Base: 41, AckEpoch: 5, AckCum: 1044, AckInc: 1,
			Items: []msg.Message{
				msg.Update{Holds: []ids.ObjID{1, 4}},
				msg.Insert{Target: ids.MakeRef(2, 8), Holder: 1, Pinner: 1},
				msg.InsertAck{Target: ids.MakeRef(2, 9)},
				msg.Report{Trace: ids.TraceID{Initiator: 3, Seq: 4}, Outcome: msg.VerdictLive},
			},
		}),
	}
}

// The codec budget, tight enough that a message carrying a fact twice fails
// it: the mix measures 12.3 bytes/msg, and the ceiling allows about 10% over
// that (gob frames of the same mix ran past 100 bytes/msg).
const (
	maxMixBytesPerMsg  = 13.5
	maxMixAllocsPerMsg = 16
)

// mixCost encodes and decodes every envelope of mix through c, returning
// the mean frame size and the heap allocations per message round trip.
func mixCost(t *testing.T, c Codec, mix []msg.Envelope) (bytesPerMsg, allocsPerMsg float64) {
	t.Helper()
	var bytes int
	roundTrip := func() {
		bytes = 0
		for i := range mix {
			frame, err := c.Encode(&mix[i], GetBuffer())
			if err != nil {
				t.Fatalf("encode %s: %v", msg.Name(mix[i].M), err)
			}
			bytes += len(frame)
			if _, err := c.Decode(frame); err != nil {
				t.Fatalf("decode %s: %v", msg.Name(mix[i].M), err)
			}
			PutBuffer(frame)
		}
	}
	allocs := testing.AllocsPerRun(200, roundTrip)
	n := float64(len(mix))
	return float64(bytes) / n, allocs / n
}

// checkMixBudget is the codec gate: compact frames, allocation-light round
// trips.
func checkMixBudget(bytesPerMsg, allocsPerMsg float64) error {
	if bytesPerMsg > maxMixBytesPerMsg {
		return fmt.Errorf("frames bloated to %.1f bytes/msg (want <= %.1f on the protocol mix)",
			bytesPerMsg, maxMixBytesPerMsg)
	}
	if allocsPerMsg > maxMixAllocsPerMsg {
		return fmt.Errorf("round trip allocates %.2f/msg (want <= %d)", allocsPerMsg, maxMixAllocsPerMsg)
	}
	return nil
}

// allocatingCodec wraps Binary with extra heap allocations per decode, so
// the budget's allocation arm has something real to reject.
type allocatingCodec struct{ Binary }

var sink [][]byte

func (c allocatingCodec) Decode(data []byte) (msg.Envelope, error) {
	for i := 0; i < 2*maxMixAllocsPerMsg; i++ {
		sink = append(sink[:0], make([]byte, 64))
	}
	return c.Binary.Decode(data)
}

// TestWireMixBudget holds Binary to its frame-size and allocation budget on
// the nine-envelope protocol mix, and checks that the gate rejects a mix
// whose frames are too big and a codec that allocates too much.
func TestWireMixBudget(t *testing.T) {
	mix := wireMix()
	if len(mix) != 9 {
		t.Fatalf("protocol mix has %d envelopes, want 9", len(mix))
	}
	bytesPerMsg, allocsPerMsg := mixCost(t, Binary{}, mix)
	t.Logf("binary: %.1f bytes/msg, %.2f allocs/msg", bytesPerMsg, allocsPerMsg)
	if err := checkMixBudget(bytesPerMsg, allocsPerMsg); err != nil {
		t.Fatal(err)
	}

	bloated := append(wireMix(), msg.Envelope{From: 3, To: 9, M: msg.Update{
		Removals: make([]ids.ObjID, 64),
	}})
	if err := checkMixBudget(mixCost(t, Binary{}, bloated)); err == nil {
		t.Error("a mix with a 64-entry Update passed the frame-size budget")
	}
	if err := checkMixBudget(mixCost(t, allocatingCodec{}, mix)); err == nil {
		t.Error("a codec allocating 32 extra times per decode passed the allocation budget")
	}
}
