package wire

import (
	"math/rand"
	"reflect"
	"testing"

	"backtrace/internal/ids"
	"backtrace/internal/msg"
)

// FuzzRoundTrip checks decode(encode(m)) == m for every message type under
// the binary codec. The fuzzer drives a structured generator: tag selects
// the message type (an index into allTags, wrapped into range), seed the
// field values, so coverage spans all twelve types — including nested
// wrappers and back-trace vectors of zero to four entries.
func FuzzRoundTrip(f *testing.F) {
	for i := range allTags {
		f.Add(int64(i+1), uint8(i))
	}
	bin := Binary{}
	f.Fuzz(func(t *testing.T, seed int64, tag uint8) {
		rng := rand.New(rand.NewSource(seed))
		env := msg.Envelope{
			From: 1 + ids.SiteID(rng.Intn(1<<16)),
			To:   1 + ids.SiteID(rng.Intn(1<<16)),
			M:    randMessage(rng, allTags[int(tag)%len(allTags)], 0),
		}
		frame, err := bin.Encode(&env, nil)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := bin.Decode(frame)
		if err != nil {
			t.Fatalf("decode own frame (%s): %v", msg.Name(env.M), err)
		}
		if !reflect.DeepEqual(got, env) {
			t.Fatalf("round trip (%s):\n got %#v\nwant %#v", msg.Name(env.M), got, env)
		}
		// Version dispatch must agree with the direct decode.
		any, err := DecodeAny(frame)
		if err != nil || !reflect.DeepEqual(any, env) {
			t.Fatalf("DecodeAny = (%#v, %v), want (%#v, nil)", any, err, env)
		}
	})
}

// FuzzDecodeAny feeds arbitrary bytes to the frame decoder: it must reject
// or accept, never panic, over-allocate, or loop — a transport decodes
// peer-controlled input.
func FuzzDecodeAny(f *testing.F) {
	env := msg.Envelope{From: 1, To: 2, M: exemplarUpdate()}
	bin, _ := (Binary{}).Encode(&env, nil)
	f.Add(bin)
	f.Add([]byte{VersionGob, 0x01, 0x02}) // reserved gob version: must reject
	f.Add([]byte{VersionBinary, 1, 2, tagLinkBatch, 1, 1, 0, 0, 0, 0xFF, 0xFF, 0x7F})
	for _, m := range backTraceVectors() {
		env := msg.Envelope{From: 1, To: 2, M: m}
		frame, _ := (Binary{}).Encode(&env, nil)
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := DecodeAny(data)
		if err == nil && env.M == nil {
			t.Fatalf("DecodeAny accepted a frame with no message: % x", data)
		}
	})
}

func exemplarUpdate() msg.Message {
	return msg.Update{
		Removals:  []ids.ObjID{3, 5},
		Distances: []msg.DistanceUpdate{{Obj: 9, Distance: 4}},
		Holds:     []ids.ObjID{1},
	}
}
