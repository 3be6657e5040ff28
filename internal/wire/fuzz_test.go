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
// field values, so coverage spans all eleven types — including nested
// batches and back-trace vectors of zero to four entries.
func FuzzRoundTrip(f *testing.F) {
	for i, tag := range allTags {
		f.Add(int64(i+1), uint8(i))
		switch tag {
		case tagUpdate, tagBackCall, tagBackReply, tagLinkBatch:
			// The delta-coded and bitmask layouts get more seeds, so
			// unsorted lists, backward seqs and both participant forms
			// are in the corpus from the start; so does LinkBatch, the
			// one frame that carries data, so nested items are too.
			for seed := int64(100); seed < 108; seed++ {
				f.Add(seed, uint8(i))
			}
		}
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
	})
}

// FuzzDecodeAny feeds arbitrary bytes, whatever their version byte, to
// Binary.Decode: it must reject or accept, never panic, over-allocate, or
// loop — a transport decodes peer-controlled input.
func FuzzDecodeAny(f *testing.F) {
	env := msg.Envelope{From: 1, To: 2, M: exemplarUpdate()}
	bin, _ := (Binary{}).Encode(&env, nil)
	f.Add(bin)
	f.Add([]byte{VersionGob, 0x01, 0x02}) // reserved gob version: must reject
	f.Add([]byte{VersionBinary, 1, 2, tagLinkBatch, 1, 1, 0, 0, 0, 0xFF, 0xFF, 0x7F})
	for _, m := range append(deltaVectors(), backTraceVectors()...) {
		env := msg.Envelope{From: 1, To: 2, M: m}
		frame, _ := (Binary{}).Encode(&env, nil)
		f.Add(frame)
	}
	for _, frame := range retiredTagFrames() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := (Binary{}).Decode(data)
		if err == nil && env.M == nil {
			t.Fatalf("Decode accepted a frame with no message: % x", data)
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

// retiredTagFrames returns the Update and back-trace exemplars' frames with
// their tag byte replaced by each retired tag the payload could be mistaken
// for; a decoder must reject every one.
func retiredTagFrames() [][]byte {
	var out [][]byte
	for _, m := range append(deltaVectors(), backTraceVectors()...) {
		env := msg.Envelope{From: 1, To: 2, M: m}
		frame, _ := (Binary{}).Encode(&env, nil)
		for _, retired := range []byte{5, 10, 17, 18, 20, 21} {
			old := append([]byte(nil), frame...)
			old[3] = retired // after the version byte and one-byte from and to
			out = append(out, old)
		}
	}
	return out
}
