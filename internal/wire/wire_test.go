package wire

import (
	"math/rand"
	"reflect"
	"testing"

	"backtrace/internal/ids"
	"backtrace/internal/msg"
)

// exemplars returns one representative value per message type, with every
// field populated away from its zero value so an encoding that drops or
// reorders a field cannot round-trip.
func exemplars() []msg.Message {
	all := []msg.Message{
		msg.RefTransfer{Payload: ids.MakeRef(3, 77), Pinner: 2},
		msg.Insert{Target: ids.MakeRef(4, 1005), Holder: 3, Pinner: 2},
		msg.InsertAck{Target: ids.MakeRef(4, 1005)},
		msg.ReleasePin{Target: ids.MakeRef(1, 9)},
		msg.Update{
			Removals: []ids.ObjID{5, 9, 1 << 40},
			Distances: []msg.DistanceUpdate{
				{Obj: 5, Distance: 0},
				{Obj: 1 << 33, Distance: 1 << 30},
				{Obj: 7, Distance: -3},
			},
			Holds: []ids.ObjID{1, 2, 3},
		},
		msg.Report{Trace: ids.TraceID{Initiator: 1, Seq: 2}, Outcome: msg.VerdictGarbage},
		msg.Report{
			Trace:           ids.TraceID{Initiator: 1, Seq: 2},
			Outcome:         msg.VerdictGarbage,
			GarbageSuspects: []uint32{1, 4},
		},
		msg.LinkData{Epoch: 3, Seq: 1 << 17, Payload: msg.ReleasePin{Target: ids.MakeRef(1, 2)}},
		msg.LinkAck{Epoch: 3, Cum: 900, Inc: 2},
		msg.LinkReset{Epoch: 12},
		msg.LinkBatch{
			Epoch: 2, Base: 41,
			AckEpoch: 5, AckCum: 1044, AckInc: 1,
			Items: []msg.Message{
				msg.Update{Holds: []ids.ObjID{1}},
				msg.BackCall{Trace: ids.TraceID{Initiator: 1, Seq: 1}, Steps: []msg.BackStep{{Outref: ids.MakeRef(2, 5)}}},
			},
		},
	}
	return append(all, backTraceVectors()...)
}

// backTraceVectors returns BackCalls and BackReplies with no, one and
// several entries, the several-entry forms mixing suspects, verdicts and
// dependency sets; they are round-trip exemplars and fuzz seeds.
func backTraceVectors() []msg.Message {
	trace := ids.TraceID{Initiator: 6, Seq: 1 << 21}
	return []msg.Message{
		msg.BackCall{Trace: trace, Initiator: 6},
		msg.BackCall{Trace: trace, Initiator: 6, Steps: []msg.BackStep{
			{Caller: ids.FrameID{Site: 2, Seq: 19}, Outref: ids.MakeRef(2, 42)},
		}},
		msg.BackCall{Trace: trace, Initiator: 6, Steps: []msg.BackStep{
			{Caller: ids.FrameID{Site: 2, Seq: 19}, Outref: ids.MakeRef(2, 42)},
			{Caller: ids.FrameID{Site: 2, Seq: 20}, Outref: ids.MakeRef(2, 1<<40), Suspect: 3},
			{Caller: ids.FrameID{Site: 2, Seq: 1 << 30}, Outref: ids.MakeRef(2, 7), Suspect: 1 << 18},
		}},
		msg.BackReply{Trace: trace},
		msg.BackReply{Trace: trace, Results: []msg.BackResult{
			{Caller: ids.FrameID{Site: 2, Seq: 19}, Result: msg.VerdictLive, Participants: []ids.SiteID{1, 5, 9}},
		}},
		msg.BackReply{Trace: trace, Results: []msg.BackResult{
			{Caller: ids.FrameID{Site: 2, Seq: 19}, Result: msg.VerdictGarbage, Participants: []ids.SiteID{1, 5}, Deps: []uint32{0, 2, 1 << 18}},
			{Caller: ids.FrameID{Site: 2, Seq: 20}, Result: msg.VerdictLive, Participants: []ids.SiteID{5}},
			{Caller: ids.FrameID{Site: 2, Seq: 21}, Result: msg.VerdictGarbage},
		}},
	}
}

func codecs(t *testing.T) []Codec {
	t.Helper()
	return []Codec{Binary{}}
}

func TestRoundTripEveryType(t *testing.T) {
	for _, c := range codecs(t) {
		for _, m := range exemplars() {
			env := msg.Envelope{From: 3, To: 9, M: m}
			frame, err := c.Encode(&env, nil)
			if err != nil {
				t.Fatalf("%s encode %s: %v", c.Name(), msg.Name(m), err)
			}
			got, err := c.Decode(frame)
			if err != nil {
				t.Fatalf("%s decode %s: %v", c.Name(), msg.Name(m), err)
			}
			if !reflect.DeepEqual(got, env) {
				t.Errorf("%s round trip %s:\n got %#v\nwant %#v", c.Name(), msg.Name(m), got, env)
			}
		}
	}
}

// TestDecodeAnyDispatch checks version dispatch: binary frames decode
// through DecodeAny, the reserved gob byte (0x00) is rejected with a clear
// error, and unknown versions fail.
func TestDecodeAnyDispatch(t *testing.T) {
	for _, c := range codecs(t) {
		env := msg.Envelope{From: 1, To: 2, M: msg.LinkAck{Epoch: 1, Cum: 5, Inc: 1}}
		frame, err := c.Encode(&env, GetBuffer())
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeAny(frame)
		if err != nil {
			t.Fatalf("DecodeAny(%s frame): %v", c.Name(), err)
		}
		if !reflect.DeepEqual(got, env) {
			t.Errorf("DecodeAny(%s frame) = %#v, want %#v", c.Name(), got, env)
		}
		PutBuffer(frame)
	}
	if _, err := DecodeAny([]byte{VersionGob, 1, 2, 3}); err == nil {
		t.Error("DecodeAny accepted a frame with the reserved gob version byte")
	}
	if _, err := DecodeAny([]byte{0x42}); err == nil {
		t.Error("DecodeAny accepted an unknown frame version")
	}
}

// TestByNameRejectsGob pins the removal: requesting the retired codec by
// name is a configuration error, not a silent fallback.
func TestByNameRejectsGob(t *testing.T) {
	if _, err := ByName("gob"); err == nil {
		t.Fatal("ByName(\"gob\") succeeded after the codec's removal")
	}
	if c, err := ByName(""); err != nil || c.Name() != "binary" {
		t.Fatalf("ByName(\"\") = %v, %v; want the binary default", c, err)
	}
}

func TestEncodeAppendsToBuf(t *testing.T) {
	env := msg.Envelope{From: 1, To: 2, M: msg.LinkReset{Epoch: 4}}
	prefix := []byte{0xAA, 0xBB}
	frame, err := (Binary{}).Encode(&env, append([]byte(nil), prefix...))
	if err != nil {
		t.Fatal(err)
	}
	if frame[0] != 0xAA || frame[1] != 0xBB {
		t.Fatalf("Encode overwrote existing buffer contents: % x", frame[:2])
	}
	if _, err := (Binary{}).Decode(frame[2:]); err != nil {
		t.Fatalf("decode appended frame: %v", err)
	}
}

func TestDecodeRejectsCorruptFrames(t *testing.T) {
	env := msg.Envelope{From: 3, To: 9, M: exemplars()[4]} // Update: has collections
	frame, err := (Binary{}).Encode(&env, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"bad version":    {0x7F, 1, 2},
		"truncated":      frame[:len(frame)/2],
		"trailing bytes": append(append([]byte(nil), frame...), 0x00),
		"unknown tag":    {VersionBinary, 1, 2, 0xEE},
		// Retired tags are never reassigned, so a frame from an old layout
		// fails loudly: a single-step back call (6-8, 14-16) or a
		// site-level piggyback Batch (9) around one LinkReset.
		"retired tag":   {VersionBinary, 1, 2, 6, 1, 1, 1, 1, 1, 2, 0, 2, 1},
		"retired tag 9": {VersionBinary, 1, 2, 9, 1, tagLinkReset, 1},
		// Collection length far beyond the remaining bytes must error, not
		// allocate.
		"bomb length": {VersionBinary, 1, 2, tagUpdate, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
	}
	for name, data := range cases {
		if _, err := (Binary{}).Decode(data); err == nil {
			t.Errorf("%s: Decode accepted corrupt frame % x", name, data)
		}
		if _, err := DecodeAny(data); err == nil && len(data) > 0 && data[0] == VersionBinary {
			t.Errorf("%s: DecodeAny accepted corrupt frame", name)
		}
	}
}

func TestDecodeRejectsDeepNesting(t *testing.T) {
	inner := msg.Message(msg.LinkReset{Epoch: 1})
	for i := 0; i < maxNest+2; i++ {
		inner = msg.LinkData{Payload: inner}
	}
	env := msg.Envelope{From: 1, To: 2, M: inner}
	frame, err := (Binary{}).Encode(&env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Binary{}).Decode(frame); err == nil {
		t.Fatal("Decode accepted nesting beyond maxNest")
	}
}

// allTags lists the live message tags; LinkBatch comes last so a LinkData
// payload can draw from every tag but it.
var allTags = []int{
	tagRefTransfer, tagInsert, tagInsertAck, tagReleasePin, tagUpdate,
	tagBackCall, tagBackReply, tagReport, tagLinkData, tagLinkAck,
	tagLinkReset, tagLinkBatch,
}

// randMessage builds a random message of the given tag; depth bounds
// wrapper nesting. Shared by the fuzz targets and the randomized round-trip
// test. Slices are left nil when empty so decode output compares equal.
func randMessage(rng *rand.Rand, tag, depth int) msg.Message {
	ref := func() ids.Ref { return ids.MakeRef(ids.SiteID(rng.Intn(1<<16)), ids.ObjID(rng.Uint64()>>rng.Intn(64))) }
	site := func() ids.SiteID { return ids.SiteID(rng.Intn(1 << 16)) }
	objs := func() []ids.ObjID {
		n := rng.Intn(4)
		if n == 0 {
			return nil
		}
		out := make([]ids.ObjID, n)
		for i := range out {
			out[i] = ids.ObjID(rng.Uint64() >> rng.Intn(64))
		}
		return out
	}
	items := func() []msg.Message {
		if depth >= 3 {
			return nil
		}
		n := rng.Intn(3)
		if n == 0 {
			return nil
		}
		out := make([]msg.Message, n)
		for i := range out {
			out[i] = randMessage(rng, allTags[rng.Intn(len(allTags))], depth+1)
		}
		return out
	}
	u32s := func() []uint32 {
		n := rng.Intn(4)
		if n == 0 {
			return nil
		}
		out := make([]uint32, n)
		for i := range out {
			out[i] = rng.Uint32() >> rng.Intn(32)
		}
		return out
	}
	frame := func() ids.FrameID { return ids.FrameID{Site: site(), Seq: rng.Uint64() >> rng.Intn(64)} }
	trace := func() ids.TraceID { return ids.TraceID{Initiator: site(), Seq: rng.Uint64() >> rng.Intn(64)} }
	switch tag {
	case tagRefTransfer:
		return msg.RefTransfer{Payload: ref(), Pinner: site()}
	case tagInsert:
		return msg.Insert{Target: ref(), Holder: site(), Pinner: site()}
	case tagInsertAck:
		return msg.InsertAck{Target: ref()}
	case tagReleasePin:
		return msg.ReleasePin{Target: ref()}
	case tagUpdate:
		u := msg.Update{Removals: objs(), Holds: objs()}
		if n := rng.Intn(4); n > 0 {
			u.Distances = make([]msg.DistanceUpdate, n)
			for i := range u.Distances {
				u.Distances[i] = msg.DistanceUpdate{
					Obj:      ids.ObjID(rng.Uint64() >> rng.Intn(64)),
					Distance: rng.Intn(1<<31) - 1<<30,
				}
			}
		}
		return u
	case tagBackCall:
		// No, one or several steps; suspects are often 0 (single-suspect
		// traces) and otherwise mixed.
		c := msg.BackCall{Trace: trace(), Initiator: site()}
		if n := rng.Intn(5); n > 0 {
			c.Steps = make([]msg.BackStep, n)
			for i := range c.Steps {
				c.Steps[i] = msg.BackStep{Caller: frame(), Outref: ref(), Suspect: uint32(rng.Intn(3)) * uint32(rng.Intn(1<<10))}
			}
		}
		return c
	case tagBackReply:
		rep := msg.BackReply{Trace: trace()}
		if n := rng.Intn(5); n > 0 {
			rep.Results = make([]msg.BackResult, n)
			for i := range rep.Results {
				res := msg.BackResult{Caller: frame(), Result: msg.Verdict(rng.Intn(2)), Deps: u32s()}
				if n := rng.Intn(4); n > 0 {
					res.Participants = make([]ids.SiteID, n)
					for j := range res.Participants {
						res.Participants[j] = site()
					}
				}
				rep.Results[i] = res
			}
		}
		return rep
	case tagReport:
		return msg.Report{Trace: trace(), Outcome: msg.Verdict(rng.Intn(2)), GarbageSuspects: u32s()}
	case tagLinkData:
		return msg.LinkData{
			Epoch:   rng.Uint64() >> rng.Intn(64),
			Seq:     rng.Uint64() >> rng.Intn(64),
			Payload: randMessage(rng, allTags[rng.Intn(len(allTags)-1)], depth+1),
		}
	case tagLinkAck:
		return msg.LinkAck{Epoch: rng.Uint64() >> rng.Intn(64), Cum: rng.Uint64() >> rng.Intn(64), Inc: rng.Uint64() >> rng.Intn(64)}
	case tagLinkReset:
		return msg.LinkReset{Epoch: rng.Uint64() >> rng.Intn(64)}
	default:
		lb := msg.LinkBatch{
			Epoch:    rng.Uint64() >> rng.Intn(64),
			Base:     rng.Uint64() >> rng.Intn(64),
			AckEpoch: rng.Uint64() >> rng.Intn(64),
			AckCum:   rng.Uint64() >> rng.Intn(64),
			AckInc:   rng.Uint64() >> rng.Intn(64),
			Items:    items(),
		}
		return lb
	}
}

// TestRandomizedRoundTrip is the deterministic (non-fuzz) version of
// FuzzRoundTrip, so plain `go test` exercises the same property.
func TestRandomizedRoundTrip(t *testing.T) {
	for _, c := range codecs(t) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 2000; i++ {
			env := msg.Envelope{
				From: ids.SiteID(rng.Intn(1 << 16)),
				To:   ids.SiteID(rng.Intn(1 << 16)),
				M:    randMessage(rng, allTags[rng.Intn(len(allTags))], 0),
			}
			frame, err := c.Encode(&env, GetBuffer())
			if err != nil {
				t.Fatalf("%s encode #%d: %v", c.Name(), i, err)
			}
			got, err := c.Decode(frame)
			PutBuffer(frame)
			if err != nil {
				t.Fatalf("%s decode #%d (%s): %v", c.Name(), i, msg.Name(env.M), err)
			}
			if !reflect.DeepEqual(got, env) {
				t.Fatalf("%s round trip #%d (%s):\n got %#v\nwant %#v", c.Name(), i, msg.Name(env.M), got, env)
			}
		}
	}
}
