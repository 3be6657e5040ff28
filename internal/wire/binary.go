package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"backtrace/internal/ids"
	"backtrace/internal/msg"
)

// Binary frame layout (version 1):
//
//	frame   := version(1B = 0x01) | from(uvarint) | to(uvarint) | message
//	message := tag(1B) | payload
//
// Site ids, object ids, sequence numbers, and collection lengths are
// unsigned LEB128 varints (encoding/binary Uvarint); distances are zigzag
// varints because the infinity sentinel and deltas may be large but typical
// values are tiny. References are (site, obj) uvarint pairs; trace ids are
// (site, seq) pairs. Object-id lists and a message's caller frame seqs are
// zigzag deltas from the previous entry, and a participant set whose sites
// are all below 64 is one uvarint bitmask. A message never carries what its
// link already names: a back step's caller frame and outref belong to the
// sender, a result's caller frame to the receiver, so neither carries a
// site id. The wrapper message (LinkBatch) nests the inner message
// encoding recursively.
//
// The layout has no per-frame type dictionary or field names — the tag byte
// alone selects the payload shape — which is what buys the size and speed
// advantage over gob. Evolving a message therefore REQUIRES a new tag or a
// version bump; see docs/WIRE.md.

// Message tags. Appending a type is fine; renumbering is a version bump.
//
// Tags 6-8 (one back step per BackCall, with a kind byte and an inref
// field) and 14-16 (their batched-trace extensions: suspect index,
// dependency set, garbage-suspect set) are retired: a BackCall now carries
// a vector of steps, and a vector of one is the single-step form. Retired
// tags are never reassigned; decoders reject them like any unknown tag.
// Tag 9 (the site-level piggyback Batch) is retired too: the session
// layer's LinkBatch is the one batcher. Tags 20 and 21 carried owner
// sequence numbers on RefTransfer and Update, which are gone. Tags 5, 17
// and 18 are the Update, BackCall and BackReply layouts that named each
// held outref twice and repeated site ids the link names; their
// successors are 22-24. Tag 10 (LinkData, one message per session-layer
// frame) is retired: the session layer always sends LinkBatch.
const (
	tagRefTransfer = 1
	tagInsert      = 2
	tagInsertAck   = 3
	tagReleasePin  = 4
	tagLinkAck     = 11
	tagLinkReset   = 12
	tagLinkBatch   = 13
	tagReport      = 19 // trace, outcome, garbage suspects
	tagUpdate      = 22 // removals, distances, holds; ids as deltas
	tagBackCall    = 23 // trace, steps
	tagBackReply   = 24 // trace, one result per step
	tagUpdateDelta = 25 // partial Update: removals, distances; ids as deltas
)

// listFollows is set in a verdict byte when a list (a result's deps, a
// report's garbage suspects) follows it, so the common empty case costs no
// length byte. sitesListed is set in a result's verdict byte when its
// participant set is a list rather than a bitmask.
const (
	listFollows = 0x80
	sitesListed = 0x40
)

// maxNest bounds wrapper recursion when decoding. Legitimate traffic nests
// one level (a LinkBatch around protocol messages); the bound exists so a
// corrupt or adversarial frame cannot recurse unboundedly.
const maxNest = 8

// Name implements Codec.
func (Binary) Name() string { return "binary" }

// Encode implements Codec: it appends the version-1 binary frame for env to
// buf and returns the extended slice. It never fails for messages built
// from the msg package's closed type set.
func (Binary) Encode(env *msg.Envelope, buf []byte) ([]byte, error) {
	buf = append(buf, VersionBinary)
	buf = binary.AppendUvarint(buf, uint64(env.From))
	buf = binary.AppendUvarint(buf, uint64(env.To))
	return appendMessage(buf, env.M)
}

// Decode implements Codec.
func (Binary) Decode(data []byte) (msg.Envelope, error) {
	r := reader{b: data}
	if v := r.byte(); v != VersionBinary {
		if r.err != nil {
			return msg.Envelope{}, r.err
		}
		if v == VersionGob {
			return msg.Envelope{}, fmt.Errorf("wire: frame version 0x00 (gob) is no longer supported; the sender must upgrade to the binary codec")
		}
		return msg.Envelope{}, fmt.Errorf("wire: binary codec: frame version 0x%02x, want 0x%02x", v, VersionBinary)
	}
	var env msg.Envelope
	env.From = ids.SiteID(r.uvarint())
	env.To = ids.SiteID(r.uvarint())
	env.M = r.message(0)
	if r.err != nil {
		return msg.Envelope{}, r.err
	}
	if r.off != len(r.b) {
		return msg.Envelope{}, fmt.Errorf("wire: binary codec: %d trailing bytes after frame", len(r.b)-r.off)
	}
	return env, nil
}

// --- encoding -----------------------------------------------------------

func appendRef(buf []byte, r ids.Ref) []byte {
	buf = binary.AppendUvarint(buf, uint64(r.Site))
	return binary.AppendUvarint(buf, uint64(r.Obj))
}

func appendTrace(buf []byte, t ids.TraceID) []byte {
	buf = binary.AppendUvarint(buf, uint64(t.Initiator))
	return binary.AppendUvarint(buf, t.Seq)
}

// appendDelta appends cur as the zigzag varint difference from prev.
// Differences wrap, so any two values round-trip.
func appendDelta(buf []byte, prev, cur uint64) []byte {
	return binary.AppendVarint(buf, int64(cur-prev))
}

// appendObjs appends a length-prefixed list of object ids, each as a delta
// from the previous one (the first from 0): an ascending list of nearby
// ids costs a byte or two per entry whatever the ids' magnitude.
func appendObjs(buf []byte, xs []ids.ObjID) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(xs)))
	var prev ids.ObjID
	for _, x := range xs {
		buf = appendDelta(buf, uint64(prev), uint64(x))
		prev = x
	}
	return buf
}

// siteMask returns the bitmask of a strictly ascending set of site ids that
// are all below 64, and false for any other list (which then goes as a
// list, so its order and repeats round-trip).
func siteMask(set []ids.SiteID) (uint64, bool) {
	var mask uint64
	for i, s := range set {
		if s >= 64 || i > 0 && s <= set[i-1] {
			return 0, false
		}
		mask |= 1 << s
	}
	return mask, true
}

// appendUvarints appends a length-prefixed list of unsigned varints.
func appendUvarints[T ~uint32 | ~uint64](buf []byte, xs []T) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(xs)))
	for _, x := range xs {
		buf = binary.AppendUvarint(buf, uint64(x))
	}
	return buf
}

// appendVerdict appends a verdict byte and, when list is non-empty, the
// list it announces.
func appendVerdict(buf []byte, v msg.Verdict, list []uint32) []byte {
	if len(list) == 0 {
		return append(buf, byte(v))
	}
	return appendUvarints(append(buf, byte(v)|listFollows), list)
}

func appendMessage(buf []byte, m msg.Message) ([]byte, error) {
	var err error
	switch mm := m.(type) {
	case msg.RefTransfer:
		buf = append(buf, tagRefTransfer)
		buf = appendRef(buf, mm.Payload)
		buf = binary.AppendUvarint(buf, uint64(mm.Pinner))
	case msg.Insert:
		buf = append(buf, tagInsert)
		buf = appendRef(buf, mm.Target)
		buf = binary.AppendUvarint(buf, uint64(mm.Holder))
		buf = binary.AppendUvarint(buf, uint64(mm.Pinner))
	case msg.InsertAck:
		buf = append(buf, tagInsertAck)
		buf = appendRef(buf, mm.Target)
	case msg.ReleasePin:
		buf = append(buf, tagReleasePin)
		buf = appendRef(buf, mm.Target)
	case msg.Update:
		tag := byte(tagUpdate)
		if mm.Partial {
			if len(mm.Holds) > 0 {
				return nil, fmt.Errorf("wire: binary codec: partial Update with %d holds", len(mm.Holds))
			}
			tag = tagUpdateDelta
		}
		buf = append(buf, tag)
		buf = appendObjs(buf, mm.Removals)
		buf = binary.AppendUvarint(buf, uint64(len(mm.Distances)))
		var prev ids.ObjID
		for _, du := range mm.Distances {
			buf = appendDelta(buf, uint64(prev), uint64(du.Obj))
			buf = binary.AppendVarint(buf, int64(du.Distance))
			prev = du.Obj
		}
		if !mm.Partial {
			buf = appendObjs(buf, mm.Holds)
		}
	case msg.BackCall:
		buf = append(buf, tagBackCall)
		buf = appendTrace(buf, mm.Trace)
		buf = binary.AppendUvarint(buf, uint64(len(mm.Steps)))
		var prev uint64
		for _, st := range mm.Steps {
			buf = appendDelta(buf, prev, st.Caller)
			buf = binary.AppendUvarint(buf, uint64(st.Outref))
			buf = binary.AppendUvarint(buf, uint64(st.Suspect))
			prev = st.Caller
		}
	case msg.BackReply:
		buf = append(buf, tagBackReply)
		buf = appendTrace(buf, mm.Trace)
		buf = binary.AppendUvarint(buf, uint64(len(mm.Results)))
		var prev uint64
		for _, res := range mm.Results {
			buf = appendDelta(buf, prev, res.Caller)
			prev = res.Caller
			mask, ok := siteMask(res.Participants)
			if ok {
				buf = appendVerdict(buf, res.Result, res.Deps)
				buf = binary.AppendUvarint(buf, mask)
			} else {
				buf = appendVerdict(buf, res.Result|sitesListed, res.Deps)
				buf = appendUvarints(buf, res.Participants)
			}
		}
	case msg.Report:
		buf = append(buf, tagReport)
		buf = appendTrace(buf, mm.Trace)
		buf = appendVerdict(buf, mm.Outcome, mm.GarbageSuspects)
	case msg.LinkAck:
		buf = append(buf, tagLinkAck)
		buf = binary.AppendUvarint(buf, mm.Epoch)
		buf = binary.AppendUvarint(buf, mm.Cum)
		buf = binary.AppendUvarint(buf, mm.Inc)
	case msg.LinkReset:
		buf = append(buf, tagLinkReset)
		buf = binary.AppendUvarint(buf, mm.Epoch)
	case msg.LinkBatch:
		buf = append(buf, tagLinkBatch)
		buf = binary.AppendUvarint(buf, mm.Epoch)
		buf = binary.AppendUvarint(buf, mm.Base)
		buf = binary.AppendUvarint(buf, mm.AckEpoch)
		buf = binary.AppendUvarint(buf, mm.AckCum)
		buf = binary.AppendUvarint(buf, mm.AckInc)
		buf = binary.AppendUvarint(buf, uint64(len(mm.Items)))
		for _, item := range mm.Items {
			if buf, err = appendMessage(buf, item); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("wire: binary codec: cannot encode %T", m)
	}
	return buf, nil
}

// --- decoding -----------------------------------------------------------

// reader is a cursor over one frame with a sticky error, so decode code
// reads fields linearly and checks failure once at the end.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: binary codec: "+format, args...)
	}
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("truncated frame at byte %d", r.off)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad uvarint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// count reads a collection length and rejects values that could not fit in
// the remaining bytes, given that each element takes at least min bytes, so
// a corrupt length cannot trigger a huge allocation.
func (r *reader) count(min int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64((len(r.b)-r.off)/min) {
		r.fail("collection length %d exceeds remaining %d bytes", n, len(r.b)-r.off)
		return 0
	}
	return int(n)
}

func (r *reader) ref() ids.Ref {
	site := ids.SiteID(r.uvarint())
	obj := ids.ObjID(r.uvarint())
	return ids.Ref{Site: site, Obj: obj}
}

func (r *reader) trace() ids.TraceID {
	site := ids.SiteID(r.uvarint())
	seq := r.uvarint()
	return ids.TraceID{Initiator: site, Seq: seq}
}

// delta reads a value written by appendDelta after prev.
func (r *reader) delta(prev uint64) uint64 { return prev + uint64(r.varint()) }

// objs reads a list written by appendObjs; an empty list decodes as nil.
func (r *reader) objs() []ids.ObjID {
	n := r.count(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]ids.ObjID, n)
	var prev uint64
	for i := range out {
		prev = r.delta(prev)
		out[i] = ids.ObjID(prev)
	}
	return out
}

// sites reads a participant set: a list when the verdict byte said so,
// else a bitmask, which decodes ascending. An empty set decodes as nil.
func (r *reader) sites(listed bool) []ids.SiteID {
	if listed {
		return uvarints[ids.SiteID](r)
	}
	mask := r.uvarint()
	if mask == 0 {
		return nil
	}
	out := make([]ids.SiteID, 0, bits.OnesCount64(mask))
	for ; mask != 0; mask &= mask - 1 {
		out = append(out, ids.SiteID(bits.TrailingZeros64(mask)))
	}
	return out
}

// uvarints reads a list written by appendUvarints; an empty list decodes
// as nil.
func uvarints[T ~uint32 | ~uint64](r *reader) []T {
	n := r.count(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(r.uvarint())
	}
	return out
}

// verdict reads a byte written by appendVerdict and the list it announces.
func (r *reader) verdict() (msg.Verdict, []uint32) {
	b := r.byte()
	if b&listFollows == 0 {
		return msg.Verdict(b), nil
	}
	return msg.Verdict(b &^ listFollows), uvarints[uint32](r)
}

func (r *reader) message(depth int) msg.Message {
	if r.err != nil {
		return nil
	}
	if depth > maxNest {
		r.fail("message nesting deeper than %d", maxNest)
		return nil
	}
	switch tag := r.byte(); tag {
	case tagRefTransfer:
		return msg.RefTransfer{Payload: r.ref(), Pinner: ids.SiteID(r.uvarint())}
	case tagInsert:
		return msg.Insert{Target: r.ref(), Holder: ids.SiteID(r.uvarint()), Pinner: ids.SiteID(r.uvarint())}
	case tagInsertAck:
		return msg.InsertAck{Target: r.ref()}
	case tagReleasePin:
		return msg.ReleasePin{Target: r.ref()}
	case tagUpdate, tagUpdateDelta:
		u := msg.Update{Partial: tag == tagUpdateDelta}
		u.Removals = r.objs()
		if n := r.count(2); n > 0 && r.err == nil {
			u.Distances = make([]msg.DistanceUpdate, n)
			var prev uint64
			for i := range u.Distances {
				prev = r.delta(prev)
				u.Distances[i].Obj = ids.ObjID(prev)
				u.Distances[i].Distance = int(r.varint())
			}
		}
		if !u.Partial {
			u.Holds = r.objs()
		}
		return u
	case tagBackCall:
		c := msg.BackCall{Trace: r.trace()}
		if n := r.count(3); n > 0 && r.err == nil {
			c.Steps = make([]msg.BackStep, n)
			var prev uint64
			for i := range c.Steps {
				prev = r.delta(prev)
				c.Steps[i] = msg.BackStep{Caller: prev, Outref: ids.ObjID(r.uvarint()), Suspect: uint32(r.uvarint())}
			}
		}
		return c
	case tagBackReply:
		rep := msg.BackReply{Trace: r.trace()}
		if n := r.count(3); n > 0 && r.err == nil {
			rep.Results = make([]msg.BackResult, n)
			var prev uint64
			for i := range rep.Results {
				res := &rep.Results[i]
				prev = r.delta(prev)
				res.Caller = prev
				res.Result, res.Deps = r.verdict()
				listed := res.Result&sitesListed != 0
				res.Result &^= sitesListed
				res.Participants = r.sites(listed)
			}
		}
		return rep
	case tagReport:
		rep := msg.Report{Trace: r.trace()}
		rep.Outcome, rep.GarbageSuspects = r.verdict()
		return rep
	case tagLinkAck:
		return msg.LinkAck{Epoch: r.uvarint(), Cum: r.uvarint(), Inc: r.uvarint()}
	case tagLinkReset:
		return msg.LinkReset{Epoch: r.uvarint()}
	case tagLinkBatch:
		lb := msg.LinkBatch{
			Epoch:    r.uvarint(),
			Base:     r.uvarint(),
			AckEpoch: r.uvarint(),
			AckCum:   r.uvarint(),
			AckInc:   r.uvarint(),
		}
		if n := r.count(1); n > 0 && r.err == nil {
			lb.Items = make([]msg.Message, n)
			for i := range lb.Items {
				lb.Items[i] = r.message(depth + 1)
			}
		}
		return lb
	default:
		r.fail("unknown message tag %d at byte %d", tag, r.off-1)
		return nil
	}
}
