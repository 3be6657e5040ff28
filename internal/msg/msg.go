// Package msg defines the inter-site message vocabulary of the back-tracing
// collector. Every message the paper's protocol sends between sites is a
// concrete type here:
//
//   - RefTransfer — a mutator passes (or traverses) a reference to another
//     site (Section 2, Section 6.1); triggers the transfer barrier at the
//     receiver. When the sender owns the reference, the owner records the
//     new holder itself and the receiver only returns a ReleasePin receipt.
//   - Insert / InsertAck / ReleasePin — the insert protocol that registers a
//     new source site in an inref's source list when a third party passes
//     the reference, with the insert barrier's pinning of the sender's
//     outref until the owner has the insert (Section 2, Section 6.1.2).
//   - Update — after a local trace, a site reports dropped outrefs and new
//     outref distances to the target sites (Section 2, Section 3).
//   - BackCall / BackReply — the local back steps a back trace asks of one
//     source site, with their activation-frame return information, and the
//     answers to them (Section 4.4).
//   - Report — the report phase delivering a completed trace's outcome to
//     every participant (Section 4.5).
//
// Messages carry only identifiers and plain data, so every type has a
// compact hand-rolled binary encoding (package wire).
package msg

import (
	"fmt"

	"backtrace/internal/ids"
)

// Verdict is the result of a back-trace call: Live if the trace reached a
// clean ioref (hence possibly a persistent root), Garbage otherwise.
type Verdict int

const (
	// VerdictGarbage means the call found no path to a clean ioref.
	// It is the zero value so that an activation frame's accumulator
	// starts at Garbage and any Live reply overrides it.
	VerdictGarbage Verdict = iota
	// VerdictLive means the call reached a clean ioref, so the suspect is
	// (or must conservatively be treated as) reachable from a root.
	VerdictLive
)

// String returns "Garbage" or "Live".
func (v Verdict) String() string {
	switch v {
	case VerdictGarbage:
		return "Garbage"
	case VerdictLive:
		return "Live"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Message is implemented by every inter-site message type.
//
// The marker method keeps the set of messages closed within this module; the
// transport treats messages opaquely and routing information lives in the
// Envelope.
type Message interface {
	isMessage()
}

// Envelope wraps a message with its routing information. Transports deliver
// envelopes; sites receive (from, message) pairs.
type Envelope struct {
	From ids.SiteID
	To   ids.SiteID
	M    Message
}

// RefTransfer is sent when a mutator passes a reference to another site —
// as the target, argument, or result of a remote call in an RPC system
// (Section 6.1.1). The receiving site applies the transfer barrier.
//
// There are two paths. When a third party passes the reference, Pinner
// identifies the sending site, which retains a clean, pinned outref for
// Payload until the owner has recorded the receiver (the insert barrier):
// a receiver without an outref runs the insert protocol, and the owner
// then sends Pinner a ReleasePin. When the owner itself sends (Payload.Site
// is the sender), the owner has already listed the receiver as a source of
// the inref, so the receiver runs no insert protocol: it creates its outref
// and returns a ReleasePin receipt. Pinner is then NoSite.
type RefTransfer struct {
	Payload ids.Ref
	Pinner  ids.SiteID
}

// Insert asks the owner of Target to add Holder to the source list of the
// inref for Target (Section 2). Pinner is propagated from the RefTransfer so
// the owner can release the sender's pin once the insert is recorded.
type Insert struct {
	Target ids.Ref
	Holder ids.SiteID
	Pinner ids.SiteID
}

// InsertAck tells Holder that the owner has recorded it in the source list
// of the inref for Target; the holder's provisional outref is now protected
// by the source list.
type InsertAck struct {
	Target ids.Ref
}

// ReleasePin releases the retention a sender took when it passed Target.
// From the owner to a third-party sender, it says the owner has received
// the new holder's insert, so the sender may unpin its outref (Section
// 6.1.2, the insert barrier). From the receiver of an owner-sent transfer
// to the owner, it is the receipt: the receiver has applied the transfer,
// so the owner drops its record of it.
type ReleasePin struct {
	Target ids.Ref
}

// DistanceUpdate reports the new estimated distance of one outref held by
// the sending site for an object owned by the receiving site (Section 3).
type DistanceUpdate struct {
	Obj      ids.ObjID
	Distance int
}

// Update is sent to each target site after a local trace: Removals lists
// objects whose outref the sender dropped (the receiver removes the sender
// from those inrefs' source lists), and Distances carries new distance
// estimates for outrefs the sender retained (Sections 2 and 3).
//
// Holds lists the other objects at the receiver for which the sender still
// has an outref: the ones its trace did not reach, kept by a pin, a barrier
// or an application root. Each held outref is listed once, so the sender's
// complete hold set is the objects of Distances together with Holds. The
// hold set makes updates idempotent: the receiver reconciles its source
// lists against it, so a lost earlier update heals at the next one (the
// fault-tolerant reference listing of [ML94] that the paper builds on). An
// update that also lists a distance's object in Holds means the same.
//
// An owner that sent the sender one of its objects ignores a removal or
// reconciliation drop of that object until the sender's receipt for the
// transfer arrives: over a FIFO link, an update that comes first was built
// before the transfer arrived, so its silence about the object says
// nothing about the transferred reference.
type Update struct {
	Removals  []ids.ObjID
	Distances []DistanceUpdate
	Holds     []ids.ObjID
}

// HoldsAny reports whether the update lists any held outref, in Distances
// or in Holds.
func (u *Update) HoldsAny() bool { return len(u.Distances) > 0 || len(u.Holds) > 0 }

// BackCall carries the back steps one handled call (or one trace start)
// asks of a single source site (Section 4.4): every inref the sender's
// frames fanned out to whose source list names the receiver becomes one
// BackStep, so the sender pays one message per destination site rather
// than one per inter-site reference. A call with one step is the paper's
// single-reference form. The report phase originates at Trace.Initiator.
type BackCall struct {
	Trace ids.TraceID
	Steps []BackStep
}

// BackStep asks the receiver to run BackStepLocal on its outref for the
// sender's object Outref and return the verdict to the sender's activation
// frame with sequence number Caller. Both belong to the sender, which the
// link already names, so neither carries a site id.
//
// Suspect identifies which suspected outref of a multi-suspect batched
// trace this step belongs to (an index into the initiator's suspect set).
// Visit marks record the owning suspect, so the report phase can flag
// exactly the iorefs visited on behalf of suspects confirmed garbage.
// Single-suspect traces always carry suspect 0.
type BackStep struct {
	Caller  uint64
	Outref  ids.ObjID
	Suspect uint32
}

// BackReply answers a BackCall with one BackResult per step, in step
// order. The receiver sends it once every step's subtree has returned.
type BackReply struct {
	Trace   ids.TraceID
	Results []BackResult
}

// BackResult is the verdict of one BackStep, addressed to the receiver's
// activation frame with sequence number Caller (the step's Caller).
// Participants accumulates the set of sites reached in the step's subtree,
// so the initiator learns the full participant set for the report phase
// (Section 4.5: "each participant appends its id to the response of a
// call").
//
// Deps accumulates, for a Garbage result in a batched trace, the suspects
// whose visit marks this subtree's verdict relied on: a revisit of an
// ioref marked by another suspect answers Garbage (Section 4.4), which is
// only trustworthy if that suspect's own subtree also concludes Garbage.
// The initiator demotes any suspect transitively depending on a Live one.
// Empty for Live results and for single-suspect traces.
type BackResult struct {
	Caller       uint64
	Result       Verdict
	Participants []ids.SiteID
	Deps         []uint32
}

// Report delivers the outcome of a completed back trace to a participant
// (Section 4.5). On Garbage the participant flags the inrefs visited by the
// trace; on Live it clears the trace's visited marks.
//
// For a multi-suspect batched trace, GarbageSuspects lists the suspects
// confirmed garbage: the participant flags only the inrefs whose visit
// marks those suspects own, and clears everything else. An empty list with
// a Garbage outcome is the single-suspect form and flags every visited
// inref (a batch resolves Garbage only when some suspect is garbage).
type Report struct {
	Trace           ids.TraceID
	Outcome         Verdict
	GarbageSuspects []uint32
}

// LinkAck cumulatively acknowledges a link session: every message of epoch
// Epoch with sequence number <= Cum has been received (delivered or
// buffered). The sender drops acknowledged frames from its retransmission
// window.
//
// Inc carries the acker's current incarnation. A sender that observes a
// peer's incarnation increase resets the link session even if the peer's
// LinkReset announcement was lost, so a single dropped control frame can
// never wedge a link.
type LinkAck struct {
	Epoch uint64
	Cum   uint64
	Inc   uint64
}

// LinkBatch is the data frame of the reliable link layer
// (transport.Reliable): a run of consecutive protocol messages for one
// link, stamped with the sender's session epoch, optionally piggybacking
// the sender's pending cumulative acknowledgment for the reverse direction.
// Items[i] carries the message of sequence number Base+i of epoch Epoch.
// Sequence numbers start at 1 for each (link, epoch) pair and increase by
// one per message, which lets the receiver deduplicate, reorder, and
// acknowledge cumulatively; it processes the items in ascending sequence
// order, restoring the in-order delivery relation R1 of the Section 6.4
// safety proof over a lossy transport.
//
// AckEpoch/AckCum/AckInc mirror a LinkAck for the reverse link when
// AckEpoch is nonzero (epochs start at 1, so zero means "no ack attached").
type LinkBatch struct {
	Epoch uint64
	Base  uint64
	Items []Message

	AckEpoch uint64
	AckCum   uint64
	AckInc   uint64
}

// LinkReset announces that the sending site restarted with a new
// incarnation Epoch. Receivers abandon their send session toward the
// restarted site (frames in flight were addressed to the dead incarnation
// and count as ordinary message loss, which the protocol tolerates by
// timeout) and open a fresh session with a strictly larger epoch, so stale
// traffic is never replayed into or accepted from the new incarnation.
type LinkReset struct {
	Epoch uint64
}

func (RefTransfer) isMessage() {}
func (Insert) isMessage()      {}
func (InsertAck) isMessage()   {}
func (ReleasePin) isMessage()  {}
func (Update) isMessage()      {}
func (BackCall) isMessage()    {}
func (BackReply) isMessage()   {}
func (Report) isMessage()      {}
func (LinkAck) isMessage()     {}
func (LinkBatch) isMessage()   {}
func (LinkReset) isMessage()   {}

// Compile-time checks that every message type implements Message.
var (
	_ Message = RefTransfer{}
	_ Message = Insert{}
	_ Message = InsertAck{}
	_ Message = ReleasePin{}
	_ Message = Update{}
	_ Message = BackCall{}
	_ Message = BackReply{}
	_ Message = Report{}
	_ Message = LinkAck{}
	_ Message = LinkBatch{}
	_ Message = LinkReset{}
)

// Leaves calls fn for every protocol message inside m, descending through
// the LinkBatch wrapper in delivery order. For a bare
// protocol message it calls fn(m) once; the message counters use it to
// count what the session layer framed.
func Leaves(m Message, fn func(Message)) {
	switch mm := m.(type) {
	case LinkBatch:
		for _, item := range mm.Items {
			Leaves(item, fn)
		}
	default:
		fn(m)
	}
}

// Name returns a short name for a message's type, used by metrics counters
// and debug logs.
func Name(m Message) string {
	switch m.(type) {
	case RefTransfer:
		return "RefTransfer"
	case Insert:
		return "Insert"
	case InsertAck:
		return "InsertAck"
	case ReleasePin:
		return "ReleasePin"
	case Update:
		return "Update"
	case BackCall:
		return "BackCall"
	case BackReply:
		return "BackReply"
	case Report:
		return "Report"
	case LinkAck:
		return "LinkAck"
	case LinkBatch:
		return "LinkBatch"
	case LinkReset:
		return "LinkReset"
	default:
		return fmt.Sprintf("%T", m)
	}
}
