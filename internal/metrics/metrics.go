// Package metrics provides the legacy stringly-named counter API used by
// the experiment harness to measure the quantities the paper reasons about
// analytically: messages by type (for the 2E+P message-complexity claim),
// objects traced per local trace (for the Section 5 cost comparison),
// back-trace outcomes (for the back-threshold tuning claim), and space
// occupied by back information (for the O(ni·no) bound).
//
// Deprecated surface: Counters is now a compatibility shim over the typed
// obs.Registry — every Add lands in a declared obs.Counter and every Max in
// an obs.Gauge, so the same numbers back the legacy Snapshot map, the
// typed Site.Metrics()/Cluster.Metrics() snapshots, and the Prometheus
// /metrics endpoint. New code should use obs.Registry directly (reach it
// with Counters.Registry()).
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"backtrace/internal/msg"
	"backtrace/internal/obs"
)

// Counters is the legacy named-counter facade. The zero value is ready to
// use (it creates its own registry on first write); NewCounters shares an
// existing registry instead.
//
// Deprecated: new call sites should declare typed instruments on the
// obs.Registry (see Registry) rather than accumulate by string name.
type Counters struct {
	mu  sync.Mutex
	reg *obs.Registry
	// msgs holds ObserveMessage's handles into reg.
	msgs msgCounters
}

// NewCounters creates a Counters facade over an existing registry, so the
// legacy API and typed instruments share one instrument set.
func NewCounters(reg *obs.Registry) *Counters {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Counters{reg: reg}
}

// Registry returns the typed registry backing this facade, creating it on
// first use. This is the migration path away from stringly-typed names.
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

// Get returns the value of a named counter or high-water mark (zero if
// never recorded).
func (c *Counters) Get(name string) int64 {
	v, _ := c.Registry().Value(name)
	return v
}

// Max raises a named high-water mark to v if v is larger (peaks such as
// back-information size are gauges in the registry).
func (c *Counters) Max(name string, v int64) {
	c.Registry().Gauge(name, "").Max(v)
}

// Snapshot returns a copy of all counters and high-water marks as one flat
// name → value map (histograms are only in the typed obs.Snapshot).
func (c *Counters) Snapshot() map[string]int64 {
	snap := c.Registry().Snapshot()
	out := make(map[string]int64, len(snap.Counters)+len(snap.Gauges))
	for k, v := range snap.Counters {
		out[k] = v
	}
	for k, v := range snap.Gauges {
		out[k] = v
	}
	return out
}

// Reset zeroes every instrument in the backing registry (declarations are
// kept).
func (c *Counters) Reset() {
	c.Registry().Reset()
}

// String renders the counters sorted by name, one per line.
func (c *Counters) String() string {
	snap := c.Snapshot()
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "%-28s %d\n", k, snap[k])
	}
	return b.String()
}

// Message counter names. Counts are LOGICAL: a wrapper envelope (Batch,
// LinkData, LinkBatch) is unwrapped and each leaf protocol message is
// counted once under its type ("msg.BackCall") and under the total
// ("msg.total"), so the paper's 2E+P-1 complexity accounting is invariant
// under piggybacking and link-level batching. Physical envelopes are
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
	// LinkRetransmits counts LinkData frames retransmitted after an ack
	// deadline passed.
	LinkRetransmits = "link.retransmit"
	// LinkDupDropped counts received LinkData frames discarded as
	// duplicates (already delivered or already buffered).
	LinkDupDropped = "link.dup_dropped"
	// LinkStaleDropped counts frames discarded for carrying an epoch older
	// than the link's current session.
	LinkStaleDropped = "link.stale_epoch_dropped"
	// LinkAcksSent counts LinkAck frames sent by receivers.
	LinkAcksSent = "link.acks_sent"
	// LinkResets counts link session resets (site restarts announced via
	// LinkReset, and resets applied on receiving one).
	LinkResets = "link.resets"
	// LinkResetDropped counts in-flight and queued frames abandoned when a
	// session reset — traffic addressed to a dead incarnation, which the
	// protocol tolerates as message loss.
	LinkResetDropped = "link.reset_dropped"
	// LinkReorderBuffered counts frames that arrived ahead of a gap and
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
	// Config.MaxInflightTraces when the admission controller is on).
	BackTraceInflight = "backtrace.inflight"
	// BackTraceMemoHits counts back steps (and trigger scans) answered Live
	// from the generation-stamped memo without fanning out.
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
	// CompletionsDropped counts trace outcomes a site's bounded completion
	// log evicted before anyone drained them.
	CompletionsDropped = "site.completions_dropped"
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

// Sharded-storage and parallel-tracer instrument names (site.Config.Shards
// and site.Config.TraceWorkers). HeapShards, ParallelWorkers and
// ParallelShardDirtyRatio are gauges; ParallelSteals is a counter.
const (
	// HeapShards is the number of heap/ioref-table shards the site runs.
	HeapShards = "heap.shards"
	// ParallelWorkers is the number of mark workers local traces run with.
	ParallelWorkers = "localtrace.parallel.workers"
	// ParallelSteals counts work-stealing events between mark-worker deques.
	ParallelSteals = "localtrace.parallel.steals"
	// ParallelShardDirtyRatio is the percentage of objects mutated in the
	// dirtiest heap shard since the last trace snapshot, observed at the
	// most recent snapshot.
	ParallelShardDirtyRatio = "localtrace.parallel.shard_dirty_ratio"
)

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
