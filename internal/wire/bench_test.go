package wire

import (
	"testing"

	"backtrace/internal/msg"
)

// benchMix is the protocol mix the benchmarks push through each codec: one
// envelope per message type (see exemplars).
func benchMix() []msg.Envelope {
	ms := exemplars()
	envs := make([]msg.Envelope, len(ms))
	for i, m := range ms {
		envs[i] = msg.Envelope{From: 3, To: 9, M: m}
	}
	return envs
}

func benchCodecs() map[string]Codec {
	return map[string]Codec{"binary": Binary{}}
}

// BenchmarkWireEncode: frames marshalled per codec. b.N counts individual
// messages, so ns/op and allocs/op are per message across the mix.
func BenchmarkWireEncode(b *testing.B) {
	mix := benchMix()
	for name, c := range benchCodecs() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var bytes int64
			for i := 0; i < b.N; i++ {
				env := &mix[i%len(mix)]
				buf := GetBuffer()
				frame, err := c.Encode(env, buf)
				if err != nil {
					b.Fatal(err)
				}
				bytes += int64(len(frame))
				PutBuffer(frame)
			}
			b.SetBytes(bytes / int64(b.N))
		})
	}
}

// BenchmarkWireDecode: frames parsed per codec (pre-encoded outside the
// timed loop).
func BenchmarkWireDecode(b *testing.B) {
	mix := benchMix()
	for name, c := range benchCodecs() {
		frames := make([][]byte, len(mix))
		for i := range mix {
			frame, err := c.Encode(&mix[i], nil)
			if err != nil {
				b.Fatal(err)
			}
			frames[i] = frame
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Decode(frames[i%len(frames)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireRoundTrip is the headline number: encode+decode per message,
// the full cost a frame pays crossing a transport.
func BenchmarkWireRoundTrip(b *testing.B) {
	mix := benchMix()
	for name, c := range benchCodecs() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				env := &mix[i%len(mix)]
				buf := GetBuffer()
				frame, err := c.Encode(env, buf)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.Decode(frame); err != nil {
					b.Fatal(err)
				}
				PutBuffer(frame)
			}
		})
	}
}
