// Package wire defines the codec boundary of the transports: how an
// in-memory msg.Envelope becomes bytes on a link and back.
//
// One codec implements the boundary: Binary, the hand-rolled, versioned
// binary encoding — one tag byte per message type, varint-packed
// identifiers and distances, no per-frame type dictionaries. The original
// encoding/gob codec was deprecated in the release that introduced Binary
// and has since been removed; its format byte (0x00) stays permanently
// reserved so a gob frame from an old peer is rejected with a clear error
// rather than misparsed.
//
// Every encoded frame begins with a one-byte format version, which
// Binary.Decode checks before anything else. Unknown versions are an error,
// never a guess — a future format bump is detected, not misparsed.
package wire

import (
	"sync"

	"backtrace/internal/msg"
)

// Frame format versions: the first byte of every encoded frame.
const (
	// VersionGob marked a frame in the removed encoding/gob format. The
	// byte stays reserved forever: it must never be reassigned, so a
	// stale gob frame is always rejected rather than misparsed.
	VersionGob = 0x00
	// VersionBinary marks a frame in this package's binary layout.
	VersionBinary = 0x01
)

// Codec converts envelopes to framed bytes and back. Implementations must
// be safe for concurrent use: one codec value is shared by every link of a
// transport.
//
// Encode appends the encoded frame to buf (which may be nil or recycled via
// GetBuffer/PutBuffer) and returns the extended slice, so steady-state
// encoding performs no allocations. Decode must not retain data: envelopes
// returned from Decode own their memory.
type Codec interface {
	// Name identifies the codec in metrics and logs.
	Name() string
	// Encode appends env's frame to buf and returns the result.
	Encode(env *msg.Envelope, buf []byte) ([]byte, error)
	// Decode parses one frame produced by this codec's Encode.
	Decode(data []byte) (msg.Envelope, error)
}

// Binary is the codec: the versioned binary layout of this package.
type Binary struct{}

// bufPool recycles encode buffers so the steady-state encode path does not
// allocate. Buffers grow to the largest frame they have carried and are
// reused at that capacity.
var bufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 512); return &b },
}

// GetBuffer returns an empty buffer from the pool. Pass it to
// Codec.Encode and return the result to PutBuffer when the frame has been
// written out.
func GetBuffer() []byte {
	return (*bufPool.Get().(*[]byte))[:0]
}

// PutBuffer recycles a buffer obtained from GetBuffer (possibly grown by
// Encode). The caller must not use b afterwards.
func PutBuffer(b []byte) {
	bufPool.Put(&b)
}
