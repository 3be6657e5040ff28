// Package site composes a complete site of the back-tracing collector: the
// object heap, the inref/outref tables, the local tracer, and the back-
// tracing engine, wired to a transport.Network.
//
// A Site is the unit of locality in the paper: it traces its own objects
// independently, exchanges insert/update messages to maintain inter-site
// reference lists (Section 2), propagates distance estimates (Section 3),
// computes back information during local traces (Section 5), participates
// in back traces (Section 4), and applies the transfer and insert barriers
// that keep everything safe under concurrent mutation (Section 6).
//
// # Per-site concurrency architecture
//
// Mutable collector state is guarded by one RWMutex, but — unlike the
// original single-mutex design — the heavy phases no longer run inside it:
//
//   - The heap and the ioref tables are one partition each, as in the
//     paper, where a site is one unit: the heap with copy-on-write pages,
//     and the two ioref tables. The site lock is their only lock: every
//     mutator operation and every message handler is a short critical
//     section under the write lock, so each mutator step is atomic with
//     respect to the collector's steps, matching the paper's model.
//   - The local trace has one path (BeginLocalTrace). A short critical
//     section cuts the heap and the ioref tables — a frozen heap view
//     sharing the live heap's pages, and a refs.Cut, the ioref rows the
//     trace reads (root inref distances, outref targets) copied out — and
//     the computation (tracer.Tracer: the paged ascending-distance forward
//     mark, then the outset pass) runs entirely OUTSIDE the lock on that
//     cut. The Section 6.2
//     double-buffered back information makes the off-lock computation
//     safe: back traces keep using the old copy, and transfer barriers
//     that fire meanwhile are recorded and replayed onto the new copy at
//     commit. A checkpoint cuts a heap view the same way and encodes it
//     off the lock.
//   - Read-only introspection (counters, heap size, fields, distances)
//     takes only the read lock. Nothing holding only the read lock writes
//     to the heap or the tables, so Inrefs, Outrefs and
//     GarbageFlaggedInrefs, which may rebuild a table's sorted cache, take
//     the write lock, as audits do.
//   - With Config.InboxSize > 0 the site runs a mailbox executor: network
//     threads enqueue inbound messages into a bounded inbox (blocking when
//     full — backpressure) and a single dispatch goroutine applies them in
//     arrival order, preserving per-link FIFO (the paper's R1) while
//     keeping transport threads off the site lock.
package site

import (
	"fmt"
	"sync"
	"time"

	"backtrace/internal/clock"
	"backtrace/internal/core"
	"backtrace/internal/heap"
	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/msg"
	"backtrace/internal/obs"
	"backtrace/internal/refs"
	"backtrace/internal/tracer"
	"backtrace/internal/transport"
)

// Config parameterizes a Site.
type Config struct {
	// ID is the site's identifier (must be unique in the cluster).
	ID ids.SiteID
	// Network connects the site to its peers.
	Network transport.Network
	// SuspicionThreshold is T (Section 3): iorefs with estimated distance
	// beyond T are suspected. Defaults to 3.
	SuspicionThreshold int
	// BackThreshold is T2 (Section 4.3), the initial per-ioref trigger for
	// starting a back trace; it should be T plus a conservative cycle
	// length estimate. Defaults to SuspicionThreshold + 4.
	BackThreshold int
	// ThresholdBump is δ, added to an ioref's back threshold each time a
	// back trace visits it. Defaults to 4.
	ThresholdBump int
	// OutsetAlgorithm selects the Section 5 inset computation; defaults
	// to the Section 5.2 bottom-up algorithm.
	OutsetAlgorithm tracer.OutsetAlgorithm
	// CallTimeout / ReportTimeout bound back-trace waits (Section 4.6);
	// zero disables timeouts (appropriate with a reliable transport).
	CallTimeout   time.Duration
	ReportTimeout time.Duration
	// AutoBackTrace, when true, starts back traces automatically after
	// each local trace from every outref whose distance has crossed its
	// back threshold.
	AutoBackTrace bool
	// MaxInflightTraces caps the back traces this site may have in flight
	// as initiator. Suspects beyond the cap are parked in a
	// distance-priority admission queue and started as completions free
	// slots; trigger scans resume round-robin where the previous scan
	// stopped, so one commit cannot flood the network. Zero or less takes
	// the default, 4.
	MaxInflightTraces int
	// TraceBatch groups up to that many suspected outrefs whose insets
	// overlap (per the installed back information) into one multi-suspect
	// batched trace at trigger time, so a garbage cycle with many
	// suspected entry points is resolved by one trace instead of one per
	// suspect. One keeps one trace per suspect; zero or less takes the
	// default, 8.
	TraceBatch int
	// MemoizeLive is accepted and ignored: the engine caches no Live
	// verdict. The back threshold a visit raises by δ already keeps live
	// suspects from being traced again and again (Section 4.3), and a
	// cached Live relayed around a cycle of five or more sites kept it
	// from ever being collected (docs/ALGORITHM.md). The field stays
	// because existing configurations set it.
	MemoizeLive bool
	// InboxSize, when positive, runs the site as a mailbox executor:
	// Deliver enqueues into a bounded inbox of this capacity (blocking
	// when full) and a dispatch goroutine applies messages in arrival
	// order. Zero keeps the synchronous model, where Deliver applies the
	// message on the caller's thread — required for the deterministic
	// stepped replays. Sites with an inbox must be Close()d.
	InboxSize int
	// Incremental is accepted and ignored: every local trace is the same
	// full mark over the cut. A dirty-set remark can only absorb changes
	// that lower distances, while every ioref on a garbage cycle gains
	// distance each round, so on any site collecting a cycle it never ran
	// (docs/ALGORITHM.md). The field stays because existing
	// configurations set it.
	Incremental bool
	// Clock supplies every timestamp the site takes: span start/end times,
	// mailbox queue-delay accounting, and the engine's timeout deadlines.
	// Nil means the wall clock; the deterministic simulation injects a
	// virtual clock so the same schedule reproduces identical span trees.
	Clock clock.Clock
	// Faults plants deliberate bugs. It exists ONLY as fault injection for
	// the simulation model checker (internal/sim), which must demonstrate
	// that a collector missing one of its safety mechanisms produces
	// detectable safety violations. Never set it outside that harness.
	Faults Faults
	// Counters receives metrics; may be nil (a fresh set is created).
	// Sites given the same Counters share one obs.Registry, which
	// Site.Metrics reads.
	Counters *metrics.Counters
	// Observer, if non-nil, receives every observability event (trace
	// lifecycle, barriers, sweeps, timeouts) and every completed span
	// (back-trace roots, participant engagements, local traces, report
	// phases). It is the site's only event and outcome stream: a back
	// trace's verdict and participants are on its SpanBackTrace root.
	// Callbacks run under the site lock and MUST NOT call back into the
	// Site; use obs.Tee to fan out to several observers.
	Observer obs.Observer
}

// Faults is a set of planted bugs for the simulation model checker.
type Faults uint8

const (
	// FaultSkipTransferBarrier disables the Section 6.1.1 transfer
	// barrier.
	FaultSkipTransferBarrier Faults = 1 << iota
	// FaultSkipTransferCheck makes an owner apply removals and
	// reconciliation drops from an Update built before an owner-sent
	// transfer it has not yet seen receipted (see transfers.go).
	FaultSkipTransferCheck
)

func (c Config) withDefaults() Config {
	if c.SuspicionThreshold == 0 {
		c.SuspicionThreshold = 3
	}
	if c.BackThreshold == 0 {
		c.BackThreshold = c.SuspicionThreshold + 4
	}
	if c.ThresholdBump == 0 {
		c.ThresholdBump = 4
	}
	if c.OutsetAlgorithm == 0 {
		c.OutsetAlgorithm = tracer.AlgoBottomUp
	}
	if c.MaxInflightTraces <= 0 {
		c.MaxInflightTraces = 4
	}
	if c.TraceBatch <= 0 {
		c.TraceBatch = 8
	}
	if c.Counters == nil {
		c.Counters = &metrics.Counters{}
	}
	return c
}

// Site is one node of the distributed store.
type Site struct {
	cfg Config
	// clk is Config.Clock with the wall-clock default applied; every
	// timestamp the site takes goes through it.
	clk clock.Clock

	// traceMu serializes local-trace lifecycles (Begin through Commit) so
	// at most one trace computation is in flight per site. It is always
	// acquired before mu, never while holding it.
	traceMu sync.Mutex

	// mu guards everything below, and is the only lock on the heap and the
	// ioref tables. Writers (mutator operations, message handlers, trace
	// commits) take the write lock; read-only introspection takes the read
	// lock.
	mu     sync.RWMutex
	heap   *heap.Heap
	table  *refs.Table
	engine *core.Engine
	back   *tracer.BackInfo

	// tracing is true from a local trace's snapshot until its commit (or
	// abandonment); transfer barriers record their applications while it
	// is set so the commit can replay them onto the new back information.
	tracing bool
	// traceEpoch counts trace commits and wholesale state replacements; a
	// Begin records it at snapshot time and discards its result if the
	// epoch moved before installation.
	traceEpoch uint64
	// pending holds a computed-but-uncommitted local trace (Section 6.2:
	// the "new copy" being prepared while back traces still use the old).
	pending *tracer.Result
	// pendingBarrierInrefs / pendingBarrierOutrefs record transfer-barrier
	// applications that arrived while tracing; their cleaning is
	// re-applied to the new copy at commit.
	pendingBarrierInrefs  []ids.ObjID
	pendingBarrierOutrefs []ids.Ref

	// tracer runs every local trace and owns the paged mark table they
	// reuse. Guarded by traceMu, not mu: it is touched only inside a
	// local-trace lifecycle.
	tracer tracer.Tracer

	// --- trace-scheduler state (guarded by mu) ---

	// inflight counts back traces this site initiated that have not
	// completed; the admission controller compares it to
	// Config.MaxInflightTraces.
	inflight int
	// pendingTraces is the admission queue: suspects that were eligible
	// when the cap was reached, admitted in farthest-distance-first (then
	// oldest-first) order as slots free up. pendingSet dedupes it.
	pendingTraces []pendingTrace
	pendingSet    map[ids.Ref]struct{}
	pendingSeq    uint64
	// admitPending is set by the trace-completed callback (which runs
	// inside an engine call and must not re-enter it) and drained at the
	// next safe point of the entry path that triggered the completion.
	admitPending bool
	// scanCursor is where the last trigger scan stopped; the next scan
	// resumes after it (round-robin fairness across suspects).
	scanCursor    ids.Ref
	scanCursorSet bool

	// inbox is the bounded mailbox (nil when InboxSize == 0).
	inbox *mailbox

	// pendingInserts tracks insert messages awaiting acknowledgement;
	// they are retransmitted at each local trace so a lost insert heals.
	pendingInserts map[ids.Ref]msg.Insert
	// transfers is the owner's record of owner-sent transfers per
	// receiving site (transfers.go); transfersPending counts the transfers
	// in it. restarting counts, per peer, the restart markers still queued
	// in the inbox behind that peer's dead incarnation's messages.
	transfers        map[ids.SiteID]*transferLog
	transfersPending int
	restarting       map[ids.SiteID]int
	// farewell counts down the empty update messages still owed to peers
	// we no longer hold outrefs for, so a lost removal update heals.
	farewell map[ids.SiteID]int
	// sinceFull counts, per peer, the partial updates sent since the last
	// full one; a peer without an entry gets a full update next (this
	// site's first to it, or its first since the peer restarted).
	sinceFull map[ids.SiteID]int

	// --- observability state (guarded by mu, like everything above) ---

	// partStart records when this site became active in each back trace;
	// the participant-end hook turns the pair into a SpanParticipant.
	// For traces this site initiated the entry also anchors the root span
	// (the outermost frame lives exactly as long as the trace).
	partStart map[ids.TraceID]time.Time
	// traceQueueWait accumulates, per active trace, the mailbox queueing
	// delay of the messages consumed on its behalf.
	traceQueueWait map[ids.TraceID]time.Duration
	// curQueueWait is the queue delay of the message currently being
	// dispatched; the first trace-carrying message in the delivery (one
	// Batch can carry several) consumes and zeroes it.
	curQueueWait time.Duration
	// localTraceT0 is the wall-clock start of the local trace between
	// BeginLocalTrace and CommitLocalTrace (guarded by traceMu).
	localTraceT0 time.Time

	// Typed instruments, declared once at construction on the shared
	// registry so the hot paths never take the registry lock.
	histRTT      *obs.Histogram
	histLocalDur *obs.Histogram
	histMark     *obs.Histogram
	histOutsets  *obs.Histogram
	histTraceCut *obs.Histogram
	histCkptCut  *obs.Histogram
	histQueue    *obs.Histogram
	gaugeDepth   *obs.Gauge
	// gaugeTransfers is site.owner_transfers_pending; each site adds its
	// own changes, so a shared registry reads the sum over its sites.
	gaugeTransfers *obs.Gauge
	// ctrUpdatesFull and ctrUpdateDists count the full updates and the
	// distance entries this site sends.
	ctrUpdatesFull *obs.Counter
	ctrUpdateDists *obs.Counter
}

// pendingTrace is one parked suspect in the admission queue.
type pendingTrace struct {
	target ids.Ref
	dist   int    // outref distance at enqueue time (farther = more suspect)
	seq    uint64 // enqueue order, for age tie-breaking
}

var _ transport.Handler = (*Site)(nil)

// New creates a site and registers it on the network.
func New(cfg Config) *Site {
	cfg = cfg.withDefaults()
	s := &Site{
		cfg:            cfg,
		clk:            clock.OrWall(cfg.Clock),
		heap:           heap.New(cfg.ID),
		table:          refs.NewTable(cfg.ID, cfg.BackThreshold),
		back:           tracer.EmptyBackInfo(),
		pendingInserts: make(map[ids.Ref]msg.Insert),
		transfers:      make(map[ids.SiteID]*transferLog),
		restarting:     make(map[ids.SiteID]int),
		farewell:       make(map[ids.SiteID]int),
		sinceFull:      make(map[ids.SiteID]int),
		pendingSet:     make(map[ids.Ref]struct{}),
		partStart:      make(map[ids.TraceID]time.Time),
		traceQueueWait: make(map[ids.TraceID]time.Duration),
	}
	reg := cfg.Counters.Registry()
	s.histRTT = reg.Histogram(obs.MetricBackTraceRTT,
		"wall-clock duration of back traces initiated by this site", nil)
	s.histLocalDur = reg.Histogram(obs.MetricLocalTraceDuration,
		"wall-clock duration of local traces (begin through commit)", nil)
	s.histMark = reg.Histogram(obs.MetricLocalTraceMark,
		"wall-clock duration of a local trace's forward mark", nil)
	s.histOutsets = reg.Histogram(obs.MetricLocalTraceOutsets,
		"wall-clock duration of a local trace's outset pass", nil)
	s.histTraceCut = reg.Histogram(obs.MetricLocalTraceCut,
		"time a local trace's consistent cut holds the site lock", nil)
	s.histCkptCut = reg.Histogram(obs.MetricCheckpointCut,
		"time a checkpoint's consistent cut holds the site lock", nil)
	s.histQueue = reg.Histogram(obs.MetricMailboxQueueDelay,
		"time inbound messages spent queued in a site mailbox", nil)
	s.gaugeDepth = reg.Gauge(obs.MetricMailboxDepth,
		"inbox depth observed at the most recent enqueue")
	s.gaugeTransfers = reg.Gauge(metrics.OwnerTransfersPending,
		"owner-sent reference transfers whose receiver has not yet receipted them")
	s.ctrUpdatesFull = reg.Counter(metrics.UpdatesFull,
		"Update messages sent in full form (every held outref listed)")
	s.ctrUpdateDists = reg.Counter(metrics.UpdateDistances,
		"distance entries carried by the Update messages sent")
	// Declare the trace-traffic instruments up front so scrapes see them
	// at zero even before the first back trace (or with the engine off).
	reg.Gauge(metrics.BackTraceInflight,
		"high-water mark of concurrently in-flight back traces initiated by this site")
	reg.Gauge(metrics.BackTraceBatchSize,
		"high-water mark of suspects carried by one multi-suspect back trace")
	reg.Counter(metrics.BackTraceJoined,
		"suspects joined to an active back trace instead of starting one (the scheduler never joins: always zero)")
	reg.Counter(metrics.BackTraceDeferred,
		"suspects parked in the admission queue because the in-flight cap was reached")
	s.engine = core.NewEngine(core.Config{
		Site:          cfg.ID,
		Threshold:     cfg.SuspicionThreshold,
		ThresholdBump: cfg.ThresholdBump,
		CallTimeout:   cfg.CallTimeout,
		ReportTimeout: cfg.ReportTimeout,
		Now:           s.clk.Now,
		Send:          func(to ids.SiteID, m msg.Message) { s.cfg.Network.Send(s.cfg.ID, to, m) },
		Table:         s.table,
		Inset:         func(target ids.Ref) []ids.ObjID { return s.back.Inset(target) },
		Counters:      cfg.Counters,
		Completed:     s.onTraceCompleted,
		OnFlagged: func(obj ids.ObjID) {
			s.emit(obs.Event{Kind: obs.InrefFlagged, Obj: obj})
		},
		OnTimeout: func(t ids.TraceID) {
			s.emit(obs.Event{Kind: obs.TimeoutAssumedLive, Trace: t})
		},
		OnParticipantStart: s.onParticipantStart,
		OnParticipantEnd:   s.onParticipantEnd,
	})
	if cfg.InboxSize > 0 {
		s.inbox = newMailbox(s, cfg.InboxSize)
	}
	cfg.Network.Register(cfg.ID, s)
	return s
}

// Close stops the mailbox dispatch goroutine, discarding any queued
// messages (the protocol tolerates message loss). The back-trace messages
// the engine held for the open burst were produced by messages already
// applied, so they are shipped, not dropped. It is a no-op for sites
// without an inbox and is safe to call more than once.
func (s *Site) Close() {
	if s.inbox != nil {
		s.inbox.stop()
	}
}

// InboxDepth returns the number of inbound messages queued or being
// dispatched; zero for sites without an inbox.
func (s *Site) InboxDepth() int {
	if s.inbox == nil {
		return 0
	}
	return s.inbox.depth()
}

// AwaitInboxIdle blocks until the inbox is empty and no message is being
// dispatched, or the timeout elapses. It returns immediately for sites
// without an inbox.
func (s *Site) AwaitInboxIdle(timeout time.Duration) error {
	if s.inbox == nil {
		return nil
	}
	return s.inbox.awaitIdle(timeout)
}

// ID returns the site's identifier.
func (s *Site) ID() ids.SiteID { return s.cfg.ID }

// Metrics returns a point-in-time snapshot of every typed instrument
// backing this site's metrics (counters, gauges, and latency histograms).
// Sites created with a shared Counters set report the shared values.
func (s *Site) Metrics() obs.Snapshot { return s.cfg.Counters.Registry().Snapshot() }

// send transmits one protocol message the site itself originates (Update,
// Insert, InsertAck, RefTransfer, ReleasePin). During a mailbox burst it
// first ships the back-trace messages the engine holds for the same
// destination, so every message the site sends follows them on the link
// and no later step or result can join them past it (R1).
func (s *Site) send(to ids.SiteID, m msg.Message) {
	s.engine.FlushTo(to)
	s.cfg.Network.Send(s.cfg.ID, to, m)
}

// emit stamps the site onto an observability event and forwards it to the
// configured observer.
func (s *Site) emit(e obs.Event) {
	if s.cfg.Observer == nil {
		return
	}
	e.Site = s.cfg.ID
	s.cfg.Observer.OnEvent(e)
}

// emitSpan stamps the site onto a finished span and forwards it to the
// configured observer. Called with the site lock held (or, for local-trace
// spans, under traceMu), which is why Observer callbacks must not call back
// into the Site.
func (s *Site) emitSpan(sp obs.Span) {
	if s.cfg.Observer == nil {
		return
	}
	sp.Site = s.cfg.ID
	s.cfg.Observer.OnSpan(sp)
}

// onParticipantStart runs (with the lock held) when the engine first
// engages this site in a back trace.
func (s *Site) onParticipantStart(t ids.TraceID) {
	s.partStart[t] = s.clk.Now()
}

// onParticipantEnd runs (with the lock held) when the last activation
// frame for a trace completes here; it closes the participant span and
// releases the trace's queue-wait accumulator.
func (s *Site) onParticipantEnd(t ids.TraceID, hops int) {
	start := s.partStart[t]
	delete(s.partStart, t)
	wait := s.traceQueueWait[t]
	delete(s.traceQueueWait, t)
	s.emitSpan(obs.Span{
		Trace:     t,
		Kind:      obs.SpanParticipant,
		Start:     start,
		End:       s.clk.Now(),
		Hops:      hops,
		QueueWait: wait,
	})
}

// noteTraceQueueWait attributes the queue delay of the message being
// dispatched to the trace it belongs to. The first trace-carrying message
// of a delivery consumes the delay; later items of the same Batch add
// nothing.
func (s *Site) noteTraceQueueWait(t ids.TraceID) {
	if s.curQueueWait > 0 {
		s.traceQueueWait[t] += s.curQueueWait
		s.curQueueWait = 0
	}
}

// onTraceCompleted runs (with the lock held) when a trace this site
// initiated finishes.
func (s *Site) onTraceCompleted(t ids.TraceID, outcome msg.Verdict, participants []ids.SiteID) {
	if s.inflight > 0 {
		s.inflight--
	}
	if len(s.pendingTraces) > 0 {
		// A slot freed up. This callback runs inside an engine call, so
		// admission is deferred to the entry path's next safe point.
		s.admitPending = true
	}
	s.emit(obs.Event{Kind: obs.TraceCompleted, Trace: t, Verdict: outcome, N: len(participants)})
	// Close the root span. The initiator's activity opened with the trace
	// and its outermost frame is still live here, so partStart[t] is the
	// trace's start; the participant span itself closes just after this
	// callback returns.
	now := s.clk.Now()
	start := s.partStart[t]
	if start.IsZero() {
		start = now
	}
	s.histRTT.Observe(now.Sub(start).Seconds())
	s.emitSpan(obs.Span{
		Trace:        t,
		Kind:         obs.SpanBackTrace,
		Start:        start,
		End:          now,
		Verdict:      outcome,
		Participants: participants,
	})
}

// Deliver implements transport.Handler: it dispatches one inbound message.
// With an inbox configured it only enqueues (blocking while the inbox is
// full); otherwise it applies the message on the caller's thread. The
// transport invokes it serially per link, so enqueue order preserves R1.
func (s *Site) Deliver(from ids.SiteID, m msg.Message) {
	if s.inbox != nil {
		s.inbox.enqueue(from, m)
		return
	}
	s.deliverNow(from, m)
}

// deliverNow applies one inbound message under the site lock. It is the
// synchronous half of Deliver.
func (s *Site) deliverNow(from ids.SiteID, m msg.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.deliverLocked(from, m)
	s.drainAdmissionsLocked()
}

// deliverQueued is the mailbox dispatcher's entry point: like deliverNow,
// but it runs inside a burst, the n-th message of it. The engine holds what
// the message sends; if the burst ends with this message, the held messages
// ship before the lock is released, and deliverQueued reports true. It also
// records how long the message waited in the inbox so the delay can be
// attributed to the back trace it belongs to.
func (s *Site) deliverQueued(from ids.SiteID, m msg.Message, wait time.Duration, n int) bool {
	s.histQueue.Observe(wait.Seconds())
	s.mu.Lock()
	defer s.mu.Unlock()
	s.engine.Hold()
	s.curQueueWait = wait
	s.deliverLocked(from, m)
	s.curQueueWait = 0
	s.drainAdmissionsLocked()
	if !s.inbox.burstOver(n) {
		return false
	}
	s.engine.Release()
	return true
}

// endBurst closes a burst the mailbox stopped in the middle of: the engine
// ships every back-trace message it held, in send order.
func (s *Site) endBurst() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.engine.Release()
}

func (s *Site) deliverLocked(from ids.SiteID, m msg.Message) {
	switch mm := m.(type) {
	case nil:
		s.restartReachedLocked(from)
	case msg.RefTransfer:
		s.handleRefTransfer(from, mm)
	case msg.Insert:
		s.handleInsert(from, mm)
	case msg.InsertAck:
		// The holder's outref is now protected by the owner's source
		// list: stop retransmitting the insert.
		delete(s.pendingInserts, mm.Target)
	case msg.ReleasePin:
		s.handleReleasePin(from, mm)
	case msg.Update:
		s.handleUpdate(from, mm)
	case msg.BackCall:
		s.noteTraceQueueWait(mm.Trace)
		s.engine.HandleBackCall(from, mm)
	case msg.BackReply:
		// A late reply (frame already closed by timeout or short-circuit)
		// must not re-open the trace's wait accumulator.
		if _, active := s.partStart[mm.Trace]; active {
			s.noteTraceQueueWait(mm.Trace)
		}
		s.engine.HandleBackReply(from, mm)
	case msg.Report:
		t0 := s.clk.Now()
		s.engine.HandleReport(from, mm)
		s.emitSpan(obs.Span{
			Trace:   mm.Trace,
			Kind:    obs.SpanReport,
			Start:   t0,
			End:     s.clk.Now(),
			Verdict: mm.Outcome,
		})
	}
}

// CheckTimeouts expires overdue back-trace state (Section 4.6). Call it
// periodically when running over an unreliable transport.
func (s *Site) CheckTimeouts() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.engine.CheckTimeouts()
	s.drainAdmissionsLocked()
}

// assertNoStrandedHold panics if the engine holds back-trace messages while
// no burst can release them: a burst stays open only while messages are
// queued or in hand, and it closes before its last message stops counting
// toward the inbox depth. Read-only entry points never release a burst
// (most hold only the read lock); they assert instead, turning a stranded message
// into a loud failure rather than a silent protocol stall.
func (s *Site) assertNoStrandedHold() {
	if s.engine.Holding() && (s.inbox == nil || s.inbox.depth() == 0) {
		panic(fmt.Sprintf("site %v: engine holds back-trace messages outside a mailbox burst", s.cfg.ID))
	}
}

// Config returns the configuration the site runs with, defaults applied.
// It never changes after New (or Restore), so it takes no lock.
func (s *Site) Config() Config { return s.cfg }

// --- introspection for tests, tools, and experiments ---------------------

// NumObjects returns the number of objects in the heap.
func (s *Site) NumObjects() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.assertNoStrandedHold()
	return s.heap.Len()
}

// ContainsObject reports whether the heap holds the object.
func (s *Site) ContainsObject(obj ids.ObjID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.assertNoStrandedHold()
	return s.heap.Contains(obj)
}

// NumInrefs and NumOutrefs report table sizes.
func (s *Site) NumInrefs() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.assertNoStrandedHold()
	return s.table.NumInrefs()
}

// NumOutrefs reports the outref table size.
func (s *Site) NumOutrefs() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.assertNoStrandedHold()
	return s.table.NumOutrefs()
}

// InrefInfo describes one inref for introspection.
type InrefInfo struct {
	Obj      ids.ObjID
	Distance int
	Sources  []ids.SiteID
	Clean    bool
	Garbage  bool
}

// Inrefs returns a snapshot of the inref table. It takes the write lock
// because reading the table in order may rebuild its sorted cache.
func (s *Site) Inrefs() []InrefInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.assertNoStrandedHold()
	out := make([]InrefInfo, 0, s.table.NumInrefs())
	for _, in := range s.table.Inrefs() {
		out = append(out, InrefInfo{
			Obj:      in.Obj,
			Distance: in.Distance(),
			Sources:  in.SourceSites(),
			Clean:    in.IsClean(s.cfg.SuspicionThreshold),
			Garbage:  in.Garbage,
		})
	}
	return out
}

// OutrefInfo describes one outref for introspection.
type OutrefInfo struct {
	Target        ids.Ref
	Distance      int
	Clean         bool
	Pinned        bool
	BackThreshold int
	Inset         []ids.ObjID
}

// Outrefs returns a snapshot of the outref table. Like Inrefs it takes the
// write lock.
func (s *Site) Outrefs() []OutrefInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.assertNoStrandedHold()
	out := make([]OutrefInfo, 0, s.table.NumOutrefs())
	for _, o := range s.table.Outrefs() {
		out = append(out, OutrefInfo{
			Target:        o.Target,
			Distance:      o.Distance,
			Clean:         o.IsClean(s.cfg.SuspicionThreshold),
			Pinned:        o.Pins > 0,
			BackThreshold: o.BackThreshold,
			Inset:         s.back.Inset(o.Target),
		})
	}
	return out
}

// BackInfoEntries returns the current number of (inref, outref) pairs in
// the installed back information — the paper's O(ni·no)-bounded quantity.
func (s *Site) BackInfoEntries() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.assertNoStrandedHold()
	return s.back.Entries()
}

// ActiveFrames exposes the engine's live activation-frame count.
func (s *Site) ActiveFrames() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.assertNoStrandedHold()
	return s.engine.ActiveFrames()
}
