// Package metrics names the quantities the paper reasons about
// analytically — messages by type (for the 2E+P message-complexity claim),
// objects traced per local trace (for the Section 5 cost comparison),
// back-trace outcomes (for the back-threshold tuning claim), and space
// occupied by back information (for the O(ni·no) bound) — and provides
// Counters, the write side that records them by name.
//
// Counters is a thin seam over obs.Registry: every Add lands in a declared
// obs.Counter and every Max in an obs.Gauge. Values are read only through
// the registry — Site.Metrics()/Cluster.Metrics() snapshots and the
// Prometheus /metrics endpoint.
package metrics

import (
	"sync"
	"sync/atomic"

	"backtrace/internal/msg"
	"backtrace/internal/obs"
)

// Counters records named counters and high-water marks into an
// obs.Registry. The zero value is ready to use (it creates its own
// registry on first write); NewCounters shares an existing registry
// instead.
type Counters struct {
	mu  sync.Mutex
	reg *obs.Registry
	// msgs holds ObserveMessage's handles into reg.
	msgs msgCounters
}

// NewCounters creates Counters over an existing registry, so named and
// typed instruments share one instrument set.
func NewCounters(reg *obs.Registry) *Counters {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Counters{reg: reg}
}

// Registry returns the typed registry these counters record into, creating
// it on first use. It is the read path for every value recorded here.
func (c *Counters) Registry() *obs.Registry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reg == nil {
		c.reg = obs.NewRegistry()
	}
	return c.reg
}

// Add increments a named counter by delta.
func (c *Counters) Add(name string, delta int64) {
	c.Registry().Counter(name, "").Add(delta)
}

// Inc increments a named counter by one.
func (c *Counters) Inc(name string) { c.Add(name, 1) }

// Max raises a named high-water mark to v if v is larger (peaks such as
// back-information size are gauges in the registry).
func (c *Counters) Max(name string, v int64) {
	c.Registry().Gauge(name, "").Max(v)
}

// Message counter names. Counts are LOGICAL: the session-layer wrapper
// (LinkBatch) is unwrapped and each leaf message is counted once
// under its type ("msg.BackCall") and under the total ("msg.total"), so the
// per-type counts behind the paper's 2E+P-1 accounting do not depend on how
// the session layer frames them. A standalone LinkAck is a leaf too, so a
// session-layer run's msg.total includes its acks. Physical envelopes are
// counted separately under "wire.frames"; drops under "msg.dropped" (per
// envelope — a dropped frame drops all its leaves together).
const (
	MsgTotal   = "msg.total"
	MsgDropped = "msg.dropped"
)

// Wire-level instrument names (the codec/batching layer of the transports).
const (
	// WireFrames counts physical envelopes handed to a transport — the
	// denominator of the batching win: wire.frames / msg.total < 1 when
	// coalescing happens.
	WireFrames = "wire.frames"
	// WireBytes totals encoded frame bytes on transports that serialize
	// (tcpnet, and memnet when configured with a codec round trip).
	WireBytes = "wire.bytes"
	// WireBatchSize is the high-water mark of leaves per flushed link batch
	// (recorded with Max).
	WireBatchSize = "wire.batch_size"
	// WireFlushes counts batcher flushes (ticks or size-triggered) that put
	// at least one frame on a link.
	WireFlushes = "wire.flushes"
)

// MsgName returns the counter name for a message type.
func MsgName(m msg.Message) string { return "msg." + msg.Name(m) }

// ObserveMessage records one send attempt; it is shaped to plug into
// transport.Observer. One call counts one physical frame and every logical
// leaf message inside it.
func (c *Counters) ObserveMessage(env msg.Envelope, dropped bool) {
	h := &c.msgs
	if dropped {
		h.dropped.inc(c, MsgDropped)
		return
	}
	h.frames.inc(c, WireFrames)
	msg.Leaves(env.M, func(leaf msg.Message) {
		h.total.inc(c, MsgTotal)
		if i := leafSlot(leaf); i >= 0 {
			h.byType[i].inc(c, slotNames[i])
		} else {
			c.Inc(MsgName(leaf))
		}
	})
}

// msgCounters are ObserveMessage's instruments, one slot per counter name,
// so a message costs atomic adds rather than registry lookups.
type msgCounters struct {
	dropped, frames, total lazyCounter
	byType                 [len(slotNames)]lazyCounter // indexed by leafSlot
}

// lazyCounter is a counter handle resolved on first use, so the counter is
// declared once something is counted, exactly as a by-name Inc declares it.
type lazyCounter struct{ p atomic.Pointer[obs.Counter] }

func (l *lazyCounter) inc(c *Counters, name string) {
	ctr := l.p.Load()
	if ctr == nil {
		ctr = c.Registry().Counter(name, "")
		l.p.Store(ctr)
	}
	ctr.Inc()
}

// slotNames are the counter names of the msgCounters.byType slots.
var slotNames = [...]string{
	MsgName(msg.RefTransfer{}), MsgName(msg.Insert{}), MsgName(msg.InsertAck{}), MsgName(msg.ReleasePin{}),
	MsgName(msg.Update{}), MsgName(msg.BackCall{}), MsgName(msg.BackReply{}), MsgName(msg.Report{}),
}

// leafSlot returns the msgCounters.byType slot of a protocol message, or -1
// for any other leaf.
func leafSlot(m msg.Message) int {
	switch m.(type) {
	case msg.RefTransfer:
		return 0
	case msg.Insert:
		return 1
	case msg.InsertAck:
		return 2
	case msg.ReleasePin:
		return 3
	case msg.Update:
		return 4
	case msg.BackCall:
		return 5
	case msg.BackReply:
		return 6
	case msg.Report:
		return 7
	}
	return -1
}

// Transport and reliable-link-layer counter names (transport.TCPNode and
// transport.Reliable).
const (
	// TransportSendFail counts TCP dial and encode failures; the failed
	// message is requeued and retried with backoff, so a nonzero count
	// with full delivery means the redial path healed the link.
	TransportSendFail = "transport.send_fail"
	// LinkRetransmits counts messages retransmitted (in LinkBatch frames)
	// after an ack deadline passed; first transmissions are not counted.
	LinkRetransmits = "link.retransmit"
	// LinkDupDropped counts received messages discarded as duplicates
	// (already delivered or already buffered).
	LinkDupDropped = "link.dup_dropped"
	// LinkStaleDropped counts messages discarded for carrying an epoch
	// older than the link's current session.
	LinkStaleDropped = "link.stale_epoch_dropped"
	// LinkAcksSent counts the cumulative acks receivers sent, piggybacked
	// on a LinkBatch or standalone as a LinkAck.
	LinkAcksSent = "link.acks_sent"
	// LinkResets counts link session resets (site restarts announced via
	// LinkReset, and resets applied on receiving one).
	LinkResets = "link.resets"
	// LinkResetDropped counts in-flight and queued frames abandoned when a
	// session reset — traffic addressed to a dead incarnation, which the
	// protocol tolerates as message loss.
	LinkResetDropped = "link.reset_dropped"
	// LinkReorderBuffered counts messages that arrived ahead of a gap and
	// were held in the receiver's reorder buffer.
	LinkReorderBuffered = "link.reorder_buffered"
)

// Back-trace and tracer counter names used across the harness.
const (
	BackTracesStarted = "backtrace.started"
	BackTracesGarbage = "backtrace.outcome.garbage"
	BackTracesLive    = "backtrace.outcome.live"
	BackTraceCalls    = "backtrace.calls"
	// BackTraceInflight is the high-water mark of concurrently in-flight
	// traces initiated by a site (a gauge recorded with Max; bounded by
	// Config.MaxInflightTraces).
	BackTraceInflight = "backtrace.inflight"
	// BackTraceMemoHits names a counter nothing registers: the engine caches
	// no Live verdict, so no step is answered from a memo. The name stays
	// because the benchmark reads it, as zero.
	BackTraceMemoHits = "backtrace.memo_hits"
	// BackTraceBatchSize is the high-water mark of suspects carried by one
	// batched trace (recorded with Max).
	BackTraceBatchSize = "backtrace.batch_size"
	// BackTraceJoined counts suspects joined to an active trace instead of
	// launching their own. The scheduler never joins (ShouldStart keeps a
	// suspect from starting while a trace is active on it), so it stays
	// declared at zero.
	BackTraceJoined = "backtrace.joined"
	// BackTraceDeferred counts suspects parked in the admission queue
	// because the in-flight cap was reached.
	BackTraceDeferred   = "backtrace.deferred"
	LocalTraces         = "localtrace.runs"
	ObjectsTraced       = "localtrace.objects"
	ObjectsRetraced     = "localtrace.objects.retraced"
	ObjectsCollected    = "localtrace.collected"
	OutsetUnions        = "outsets.unions"
	OutsetUnionsMemoHit = "outsets.unions.memoized"
	BackInfoEntries     = "backinfo.entries"
	BackInfoPeak        = "backinfo.peak"
	InrefsFlagged       = "inrefs.flagged.garbage"
)

// Incremental-tracing counter names. Every local trace is a full mark, so
// IncrementalFallbacks counts every trace (it equals LocalTraces) and the
// other three stay at zero; all four remain for consumers that read them.
const (
	// IncrementalRemarks counts local traces that took a dirty-set remark
	// instead of a full forward mark: always zero.
	IncrementalRemarks = "localtrace.incremental.remarks"
	// IncrementalFallbacks counts local traces that ran a full forward
	// mark: every trace.
	IncrementalFallbacks = "localtrace.incremental.fallbacks"
	// IncrementalOutsetsReused counts traces that carried the previous back
	// information over instead of recomputing outsets: always zero.
	IncrementalOutsetsReused = "localtrace.incremental.outsets_reused"
	// IncrementalDirtySeeds totals the changed entities remarks relaxed
	// from: always zero.
	IncrementalDirtySeeds = "localtrace.incremental.dirty_seeds"
)

// Update-message counter names: how many Updates went out in full form
// (every held outref listed) and how many distance entries all of them
// carried. The rest of the Updates sent (msg.Update) were partial.
const (
	UpdatesFull     = "update.full"
	UpdateDistances = "update.distances"
)

// OwnerTransfersPending is a gauge of the owner-sent reference transfers
// whose receiver has not yet receipted them (summed over the sites sharing
// a registry). It returns to zero once every receipt has arrived.
const OwnerTransfersPending = "site.owner_transfers_pending"

// Mailbox-executor counter names (site.Config.InboxSize > 0).
const (
	// MailboxEnqueued counts inbound messages accepted into a site inbox.
	MailboxEnqueued = "mailbox.enqueued"
	// MailboxDepthPeak is the high-water mark of inbox depth at enqueue
	// time (recorded with Max).
	MailboxDepthPeak = "mailbox.depth.peak"
	// MailboxBackpressure counts enqueues that had to block because the
	// inbox was full.
	MailboxBackpressure = "mailbox.backpressure.waits"
)
