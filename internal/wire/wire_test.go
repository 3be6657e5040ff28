package wire

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
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
		msg.LinkAck{Epoch: 3, Cum: 900, Inc: 2},
		msg.LinkReset{Epoch: 12},
		msg.LinkBatch{
			Epoch: 2, Base: 41,
			AckEpoch: 5, AckCum: 1044, AckInc: 1,
			Items: []msg.Message{
				msg.Update{Holds: []ids.ObjID{1}},
				msg.BackCall{Trace: ids.TraceID{Initiator: 1, Seq: 1}, Steps: []msg.BackStep{{Outref: 5}}},
			},
		},
	}
	all = append(all, deltaVectors()...)
	return append(all, backTraceVectors()...)
}

// deltaVectors returns Updates whose id lists the delta encoding must carry
// in any order: ascending, unsorted, descending, repeated, and spanning
// the whole id range.
func deltaVectors() []msg.Message {
	return []msg.Message{
		msg.Update{
			Removals:  []ids.ObjID{9, 3, 1 << 40, 2},
			Distances: []msg.DistanceUpdate{{Obj: 70, Distance: 4}, {Obj: 60, Distance: 5}, {Obj: 1 << 63, Distance: 1}, {Obj: 0, Distance: 2}},
			Holds:     []ids.ObjID{1<<64 - 1, 1 << 62, 5, 5, 0},
		},
		msg.Update{Distances: []msg.DistanceUpdate{{Obj: 100, Distance: 4}, {Obj: 101, Distance: 4}, {Obj: 130, Distance: 6}}},
		msg.Update{Holds: []ids.ObjID{300, 200, 100}},
	}
}

// backTraceVectors returns BackCalls and BackReplies with no, one and
// several entries, the several-entry forms mixing suspects, verdicts and
// dependency sets, caller seqs that go backwards, and participant sets in
// both forms: bitmask (ascending, below 64), list (a site of 64 or more,
// or out of order) and empty. They are round-trip exemplars and fuzz seeds.
func backTraceVectors() []msg.Message {
	trace := ids.TraceID{Initiator: 6, Seq: 1 << 21}
	return []msg.Message{
		msg.BackCall{Trace: trace},
		msg.BackCall{Trace: trace, Steps: []msg.BackStep{
			{Caller: 19, Outref: 42},
		}},
		msg.BackCall{Trace: trace, Steps: []msg.BackStep{
			{Caller: 19, Outref: 42},
			{Caller: 20, Outref: 1 << 40, Suspect: 3},
			{Caller: 1 << 30, Outref: 7, Suspect: 1 << 18},
			{Caller: 2, Outref: 7},
			{Caller: 1<<64 - 1, Outref: 1<<64 - 1},
		}},
		msg.BackReply{Trace: trace},
		msg.BackReply{Trace: trace, Results: []msg.BackResult{
			{Caller: 19, Result: msg.VerdictLive, Participants: []ids.SiteID{1, 5, 9}},
		}},
		msg.BackReply{Trace: trace, Results: []msg.BackResult{
			{Caller: 19, Result: msg.VerdictGarbage, Participants: []ids.SiteID{1, 5}, Deps: []uint32{0, 2, 1 << 18}},
			{Caller: 20, Result: msg.VerdictLive, Participants: []ids.SiteID{5}},
			{Caller: 21, Result: msg.VerdictGarbage},
		}},
		msg.BackReply{Trace: trace, Results: []msg.BackResult{
			{Caller: 40, Result: msg.VerdictGarbage, Participants: []ids.SiteID{0, 63}},
			{Caller: 12, Result: msg.VerdictGarbage, Participants: []ids.SiteID{3, 64}, Deps: []uint32{1}},
			{Caller: 11, Result: msg.VerdictLive, Participants: []ids.SiteID{1 << 20}},
			{Caller: 0, Result: msg.VerdictGarbage, Participants: []ids.SiteID{9, 2}},
			{Caller: 1<<64 - 1, Result: msg.VerdictGarbage, Participants: []ids.SiteID{4, 4}},
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

// TestDecodeChecksVersionByte checks the version byte Binary.Decode reads first:
// a binary frame decodes, the reserved gob byte (0x00) is rejected with an
// error naming the removed format, and an unknown version fails.
func TestDecodeChecksVersionByte(t *testing.T) {
	bin := Binary{}
	env := msg.Envelope{From: 1, To: 2, M: msg.LinkAck{Epoch: 1, Cum: 5, Inc: 1}}
	frame, err := bin.Encode(&env, GetBuffer())
	if err != nil {
		t.Fatal(err)
	}
	got, err := bin.Decode(frame)
	if err != nil {
		t.Fatalf("Decode(binary frame): %v", err)
	}
	if !reflect.DeepEqual(got, env) {
		t.Errorf("Decode(binary frame) = %#v, want %#v", got, env)
	}
	PutBuffer(frame)
	if _, err := bin.Decode([]byte{VersionGob, 1, 2, 3}); err == nil || !strings.Contains(err.Error(), "gob") {
		t.Errorf("Decode(gob frame) = %v, want an error naming the removed gob format", err)
	}
	if _, err := bin.Decode([]byte{0x42}); err == nil {
		t.Error("Decode accepted an unknown frame version")
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
		// A tag-10 LinkData (epoch 1, seq 1) around one LinkReset: the
		// session layer sends only LinkBatch now.
		"retired tag 10": {VersionBinary, 1, 2, 10, 1, 1, tagLinkReset, 1},
		// The layouts that repeated what the link names: an empty tag-5
		// Update, a one-step tag-17 BackCall and a one-result tag-18
		// BackReply; and the tag-20/21 sequence-numbered forms.
		"retired tag 5":  {VersionBinary, 1, 2, 5, 0, 0, 0},
		"retired tag 17": {VersionBinary, 1, 2, 17, 6, 1, 6, 1, 2, 19, 2, 42, 0},
		"retired tag 18": {VersionBinary, 1, 2, 18, 6, 1, 1, 2, 19, 1, 1, 5},
		"retired tag 20": {VersionBinary, 1, 2, 20, 3, 77, 0, 1},
		"retired tag 21": {VersionBinary, 1, 2, 21, 0, 0, 0, 0},
		// A participant bitmask too long for a uvarint.
		"bad mask": {VersionBinary, 1, 2, tagBackReply, 6, 1, 1, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
		// Collection length far beyond the remaining bytes must error, not
		// allocate.
		"bomb length": {VersionBinary, 1, 2, tagUpdate, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
	}
	for i, frame := range retiredTagFrames() {
		cases[fmt.Sprintf("retired tag %d, payload %d", frame[3], i)] = frame
	}
	for name, data := range cases {
		if _, err := (Binary{}).Decode(data); err == nil {
			t.Errorf("%s: Decode accepted corrupt frame % x", name, data)
		}
	}
}

func TestDecodeRejectsDeepNesting(t *testing.T) {
	inner := msg.Message(msg.LinkReset{Epoch: 1})
	for i := 0; i < maxNest+2; i++ {
		inner = msg.LinkBatch{Items: []msg.Message{inner}}
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

// allTags lists the live message tags.
var allTags = []int{
	tagRefTransfer, tagInsert, tagInsertAck, tagReleasePin, tagUpdate,
	tagBackCall, tagBackReply, tagReport, tagLinkAck, tagLinkReset,
	tagLinkBatch,
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
	seq := func() uint64 { return rng.Uint64() >> rng.Intn(64) }
	// participants is empty, a small ascending set (the bitmask form) or
	// a list of any sites in any order.
	participants := func() []ids.SiteID {
		n := rng.Intn(4)
		if n == 0 {
			return nil
		}
		out := make([]ids.SiteID, n)
		if rng.Intn(2) == 0 {
			for i, s := range rng.Perm(64)[:n] {
				out[i] = ids.SiteID(s)
			}
			slices.Sort(out)
			return out
		}
		for i := range out {
			out[i] = site()
		}
		return out
	}
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
		c := msg.BackCall{Trace: trace()}
		if n := rng.Intn(5); n > 0 {
			c.Steps = make([]msg.BackStep, n)
			for i := range c.Steps {
				c.Steps[i] = msg.BackStep{Caller: seq(), Outref: ids.ObjID(seq()), Suspect: uint32(rng.Intn(3)) * uint32(rng.Intn(1<<10))}
			}
		}
		return c
	case tagBackReply:
		rep := msg.BackReply{Trace: trace()}
		if n := rng.Intn(5); n > 0 {
			rep.Results = make([]msg.BackResult, n)
			for i := range rep.Results {
				rep.Results[i] = msg.BackResult{Caller: seq(), Result: msg.Verdict(rng.Intn(2)), Participants: participants(), Deps: u32s()}
			}
		}
		return rep
	case tagReport:
		return msg.Report{Trace: trace(), Outcome: msg.Verdict(rng.Intn(2)), GarbageSuspects: u32s()}
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
