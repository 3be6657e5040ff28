// Package core implements the paper's primary contribution: the
// message-driven back-tracing engine of Sections 4 and 6.
//
// A back trace checks whether a suspected object is reachable from any
// root by tracing the reference graph backwards, leaping between outrefs
// and inrefs rather than individual references (Section 4.1):
//
//   - a *local step* goes from an outref to the inrefs it is locally
//     reachable from (the outref's inset, computed by the local tracer);
//   - a *remote step* goes from an inref to the corresponding outrefs on
//     its source sites.
//
// The two steps are the mutually recursive BackStepLocal/BackStepRemote of
// Section 4.4, realized here as a distributed state machine: every call
// creates an *activation frame* holding the caller's identity, the ioref
// the call is active on, a count of pending inner calls, and the result to
// return when the count reaches zero. Local steps are direct calls within
// the site. The local steps a site asks of its inrefs' source sites travel
// as BackCall messages and come back as BackReply messages — one call per
// destination site for everything one handled call (or trace start) fans
// out to, each carrying one BackStep per inter-site reference. The results
// of a call's steps meet in a reply join, which is sent back as one
// BackReply once the last has returned. A trace starts from one or more
// suspected outrefs (a batch, sharing one trace id and its visit marks),
// and its outermost calls return into the same kind of join at the
// initiator, whose last result starts the report phase. A trace therefore
// costs two messages per (handled call, destination site)
// crossing plus one report per participant: 2W+P, which is the paper's
// 2E+P (Section 4.6) whenever every hop crosses a distinct site pair. A
// site that applies messages in bursts can widen the grouping to the
// whole burst (Hold): one call per (destination, trace) and one reply per
// (caller site, trace) for everything the burst's handled messages send.
//
// The engine also implements:
//
//   - the visit marks that keep a trace from looping (Section 4.4) and
//     their per-trace cleanup in the report phase (Section 4.5);
//   - per-ioref back thresholds, raised on every visit, so live suspects
//     stop generating traces while garbage retries until collected
//     (Section 4.3);
//   - the clean rule — "when an ioref is cleaned while a trace is active
//     there, the return value of the trace is set to Live" (Section 6.4);
//   - timeout handling: a lost call response or a lost report is assumed
//     Live (Section 4.6).
//
// The engine is not internally synchronized: the owning Site invokes every
// method while holding its own lock, which matches the paper's model of
// short atomic critical sections per site.
package core

import (
	"cmp"
	"slices"
	"time"

	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/msg"
	"backtrace/internal/obs"
	"backtrace/internal/refs"
)

// Config parameterizes an Engine.
type Config struct {
	// Site is the owning site.
	Site ids.SiteID
	// Threshold is the suspicion threshold T: iorefs at distance ≤ T are
	// clean (Section 3).
	Threshold int
	// ThresholdBump is the amount δ added to an ioref's back threshold
	// each time a back trace visits it (Section 4.3).
	ThresholdBump int
	// CallTimeout bounds how long a frame waits for its inner calls; an
	// expired frame assumes Live (Section 4.6). Zero disables timeouts.
	CallTimeout time.Duration
	// ReportTimeout bounds how long a participant retains a trace's visit
	// marks while waiting for the final outcome; expiry assumes Live.
	// Zero disables timeouts.
	ReportTimeout time.Duration
	// Send transmits a message to another site.
	Send func(to ids.SiteID, m msg.Message)
	// Table is the site's ioref table.
	Table *refs.Table
	// Inset returns the current inset of a suspected outref (from the
	// site's installed back information, Section 5).
	Inset func(target ids.Ref) []ids.ObjID
	// Now is the clock (injectable for tests). Defaults to time.Now.
	Now func() time.Time
	// MemoizeLive enables generation-stamped Live-verdict memoization:
	// when a frame completes Live (proven, not assumed by timeout), the
	// ioref it was active on is recorded against the current local-trace
	// commit generation, and later back steps through it answer Live
	// without fanning out — until BumpGeneration (a commit installed new
	// distances and back information) or a Section 6.4 clean event
	// invalidates the entry.
	MemoizeLive bool
	// Counters receives engine metrics; may be nil.
	Counters *metrics.Counters
	// Completed, if non-nil, is invoked at the initiator when one of its
	// traces finishes, with the outcome and the participant set.
	Completed func(t ids.TraceID, outcome msg.Verdict, participants []ids.SiteID)
	// OnFlagged, if non-nil, is invoked when a report phase flags an
	// inref garbage (observability hook).
	OnFlagged func(obj ids.ObjID)
	// OnTimeout, if non-nil, is invoked when a back-trace wait expires
	// and is conservatively resolved as Live (observability hook).
	OnTimeout func(t ids.TraceID)
	// OnParticipantStart, if non-nil, is invoked when this site becomes
	// active in a back trace: the first call handled (or locally started)
	// for that trace while no activity was recorded. The site layer turns
	// the start/end pair into a participant span.
	OnParticipantStart func(t ids.TraceID)
	// OnParticipantEnd, if non-nil, is invoked when the site's last
	// activation frame for a trace completes (or a call was answered
	// without creating any frame); hops is the number of BackCall messages
	// handled during the active period. A trace that revisits the site
	// later produces a fresh start/end pair.
	OnParticipantEnd func(t ids.TraceID, hops int)
}

// frame is an activation frame (Section 4.4): "A frame contains the
// identity of the frame to return to (including the caller site, etc.),
// the ioref it is active on, a count of pending inner calls to BackStep,
// and a result value to return when the count becomes zero." Frames are
// recycled through the engine's free list; seq is zeroed on release, so a
// holder can tell its frame completed by seq no longer matching.
type frame struct {
	// seq names the frame on this site; BackSteps and BackResults carry it.
	seq uint64
	// ts is the trace's record; it stays in the trace index while the frame
	// lives, because a live frame holds the trace's activity open.
	ts  *traceState
	ret ret
	// The ioref the frame is active on: onOutref for a BackStepLocal frame
	// (local set), onInref for a BackStepRemote frame.
	local    bool
	onInref  ids.ObjID
	onOutref ids.Ref
	pending  int
	// suspect is the index of the trace's suspect this frame works on
	// behalf of (always 0 in a one-suspect trace).
	suspect uint32
	// deps accumulates, in ascending order, the suspects whose visit marks
	// this frame's Garbage verdict relied on (revisit answers, Section
	// 4.4); forwarded in the reply so the initiator can run the demotion
	// fixpoint.
	deps []uint32
	// gen is the commit generation at frame creation; a Live completion
	// is memoized only if the generation has not moved since, so a
	// concurrent CommitLocalTrace invalidates the proof automatically.
	gen uint64
	// noMemo suppresses memoization for verdicts assumed rather than
	// proven (timeout expiry, Section 4.6).
	noMemo bool
	// participants accumulates, in ascending order, the sites reached in
	// this frame's subtree, always including this site. It starts in
	// partBuf: P is at most a handful of sites in every shape.
	participants []ids.SiteID
	partBuf      [4]ids.SiteID
	deadline     time.Time
}

// ret is where a back step returns its verdict: entry `entry` of a reply
// join (reply set; frame is the caller's seq on the calling site), else the
// frame with seq frame on this site.
type ret struct {
	frame uint64
	reply *pendingReply
	entry int
}

// pendingReply is a reply join: it collects the results of several back
// steps and acts once the last has returned. The join of a handled BackCall
// is sent back as its BackReply. A trace's root join (root set) sits at the
// initiator with one entry per suspect, and the last entry resolves the
// trace (Section 4.5). sites backs the results' participant lists, which
// outlive the frames they were collected in.
type pendingReply struct {
	to      ids.SiteID
	msg     msg.BackReply
	pending int
	sites   []ids.SiteID
	root    *traceState
}

// outMsg is one message waiting to ship. A BackCall or BackReply waits as an
// index into Engine.calls or Engine.replies (m nil), so later steps and
// results join it without re-boxing the message.
type outMsg struct {
	to   ids.SiteID
	kind outKind
	i    int
	m    msg.Message
}

// outKind says where an outMsg's message is.
type outKind uint8

const (
	outMessage outKind = iota // in m
	outCall                   // calls[i]
	outReply                  // replies[i]
	outGone                   // shipped early by FlushTo, or merged into a later reply
)

// queuedCall is the BackCall waiting to ship to one destination site for
// one trace. shipped closes it to later joins once FlushTo sent it.
type queuedCall struct {
	to      ids.SiteID
	call    msg.BackCall
	shipped bool
}

// queuedReply is the BackReply a hold keeps waiting for one (caller site,
// trace); slot is its current place in Engine.out.
type queuedReply struct {
	to      ids.SiteID
	reply   msg.BackReply
	slot    int
	shipped bool
}

// inrefMark / outrefMark record one visit mark together with the suspect
// that owns it, so the report phase can flag selectively.
type inrefMark struct {
	obj     ids.ObjID
	suspect uint32
}

type outrefMark struct {
	target  ids.Ref
	suspect uint32
}

// traceState is everything this site keeps about one trace, found with one
// lookup per message:
//
//   - the visit marks it set here, so the report phase can flag or unmark
//     them (Section 4.5); marked is true while they are held, and expiry
//     implements the lost-report timeout;
//   - its live engagement for the participant-span hooks: whether an
//     active period is open, how many activation frames exist, and how
//     many BackCall messages were handled since the period began.
//
// A record that holds neither marks nor an active period is idle; it is
// removed from the index when the current entry point returns, so records
// handed down an entry point's call chain stay valid until then.
type traceState struct {
	id      ids.TraceID
	marked  bool
	inrefs  []inrefMark
	outrefs []outrefMark
	expiry  time.Time
	active  bool
	frames  int
	hops    int
	// retiring is set while the record sits in Engine.idle.
	retiring bool
}

// Engine is one site's back-tracing engine.
type Engine struct {
	cfg Config
	ctr counters

	nextTrace uint64
	// nextFrame is the last frame seq issued. Seqs only grow, so a seq
	// names one frame forever: a reply to a completed frame finds nothing
	// in frames, even after the frame's struct was reused.
	nextFrame  uint64
	frames     map[uint64]*frame
	freeFrames []*frame
	// byInref/byOutref index the frames active on each ioref, ascending by
	// seq, for the clean rule (Section 6.4). Emptied lists go to seqPool.
	byInref  map[ids.ObjID][]uint64
	byOutref map[ids.Ref][]uint64
	seqPool  [][]uint64
	// traces holds the per-trace records; idle lists the records to drop
	// when the current entry point returns, and freeTraces the dropped ones
	// kept for reuse.
	traces     map[ids.TraceID]*traceState
	idle       []*traceState
	freeTraces []*traceState

	// gen is the local-trace commit generation (bumped by CommitLocalTrace
	// via BumpGeneration); memoIn/memoOut record the generation at which an
	// ioref was last proven Live. An entry is valid only while its stamp
	// equals gen, so a commit invalidates every cached verdict at once.
	gen     uint64
	memoIn  map[ids.ObjID]uint64
	memoOut map[ids.Ref]uint64

	// out holds the messages waiting to ship, in send order. calls holds
	// their BackCalls, one per (destination, trace), so later steps join
	// them; replies holds the BackReplies a hold keeps, one per (caller
	// site, trace), so later results merge into them. Each entry point
	// ships everything when it returns, unless the owning site holds the
	// outbox for a burst (Hold), in which case Release ships it.
	out     []outMsg
	calls   []queuedCall
	replies []queuedReply
	holding bool
	// self is the one-site participant list of an answer given without a
	// frame; sources is stepRemote's scratch list of source sites. Both
	// are only read by the code they are handed to.
	self    []ids.SiteID
	sources []ids.SiteID
}

// counters are the engine's metric instruments, resolved once.
type counters struct {
	started, calls, garbage, live, flagged, memoHits *obs.Counter
	batchSize                                        *obs.Gauge
}

// NewEngine creates an engine for a site.
func NewEngine(cfg Config) *Engine {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	reg := obs.NewRegistry() // discards the counts when cfg.Counters is nil
	if cfg.Counters != nil {
		reg = cfg.Counters.Registry()
	}
	return &Engine{
		cfg: cfg,
		ctr: counters{
			started:   reg.Counter(metrics.BackTracesStarted, ""),
			calls:     reg.Counter(metrics.BackTraceCalls, ""),
			garbage:   reg.Counter(metrics.BackTracesGarbage, ""),
			live:      reg.Counter(metrics.BackTracesLive, ""),
			flagged:   reg.Counter(metrics.InrefsFlagged, ""),
			memoHits:  reg.Counter(metrics.BackTraceMemoHits, ""),
			batchSize: reg.Gauge(metrics.BackTraceBatchSize, ""),
		},
		frames:   make(map[uint64]*frame),
		byInref:  make(map[ids.ObjID][]uint64),
		byOutref: make(map[ids.Ref][]uint64),
		traces:   make(map[ids.TraceID]*traceState),
		memoIn:   make(map[ids.ObjID]uint64),
		memoOut:  make(map[ids.Ref]uint64),
		self:     []ids.SiteID{cfg.Site},
	}
}

// send queues a message for the end of the current entry point (or burst).
func (e *Engine) send(to ids.SiteID, m msg.Message) {
	e.out = append(e.out, outMsg{to: to, m: m})
}

// sendStep queues one back step for a source site, joining the BackCall
// already waiting for the same (destination, trace). Joining an earlier
// call only ever moves a step ahead of engine messages queued after that
// call, never ahead of anything else: the site ships the held messages for
// a destination (FlushTo) before it sends that destination any message of
// its own, which also closes the shipped call to further joins.
func (e *Engine) sendStep(to ids.SiteID, t ids.TraceID, step msg.BackStep) {
	for i := range e.calls {
		if c := &e.calls[i]; c.to == to && c.call.Trace == t && !c.shipped {
			c.call.Steps = append(c.call.Steps, step)
			return
		}
	}
	e.out = append(e.out, outMsg{to: to, kind: outCall, i: len(e.calls)})
	e.calls = append(e.calls, queuedCall{to: to, call: msg.BackCall{Trace: t, Steps: []msg.BackStep{step}}})
}

// sendReply queues a completed BackReply. Outside a hold each reply ships
// on its own. During a hold, a reply to a (caller site, trace) that already
// has one waiting takes over that reply's results, which move to the newer
// reply's place: merging only ever delays results behind engine messages
// queued meanwhile, so no result overtakes a message sent before it.
func (e *Engine) sendReply(to ids.SiteID, r msg.BackReply) {
	if !e.holding {
		e.send(to, r)
		return
	}
	for i := range e.replies {
		if q := &e.replies[i]; q.to == to && q.reply.Trace == r.Trace && !q.shipped {
			r.Results = append(q.reply.Results, r.Results...)
			e.out[q.slot].kind = outGone
			q.reply, q.slot = r, len(e.out)
			e.out = append(e.out, outMsg{to: to, kind: outReply, i: i})
			return
		}
	}
	e.out = append(e.out, outMsg{to: to, kind: outReply, i: len(e.replies)})
	e.replies = append(e.replies, queuedReply{to: to, reply: r, slot: len(e.out) - 1})
}

// ship sends one waiting message.
func (e *Engine) ship(o outMsg) {
	switch o.kind {
	case outMessage:
		e.cfg.Send(o.to, o.m)
	case outCall:
		e.cfg.Send(o.to, e.calls[o.i].call)
	case outReply:
		e.cfg.Send(o.to, e.replies[o.i].reply)
	}
}

// flush ends an entry point: unless a hold keeps them, it ships the waiting
// messages in send order; then it drops the trace records that went idle.
// Every exported method that can send or change a trace record defers it.
func (e *Engine) flush() {
	if !e.holding {
		for _, o := range e.out {
			e.ship(o)
		}
		clear(e.out)
		e.out = e.out[:0]
		clear(e.calls)
		e.calls = e.calls[:0]
		clear(e.replies)
		e.replies = e.replies[:0]
	}
	for _, ts := range e.idle {
		ts.retiring = false
		if ts.active || ts.marked {
			continue
		}
		delete(e.traces, ts.id)
		e.freeTraces = append(e.freeTraces, ts)
	}
	clear(e.idle)
	e.idle = e.idle[:0]
}

// --- holding the outbox across entry points ----------------------------------

// Hold keeps the messages entry points queue waiting past their return, so
// the steps many handled messages send one destination for one trace join
// one BackCall, and the replies they owe one caller site for one trace
// merge into one BackReply. A mailbox site holds for one dispatch burst.
// While holding, the site must call FlushTo before it sends a destination
// any message of its own, and Release when the burst ends. Hold is
// idempotent.
func (e *Engine) Hold() { e.holding = true }

// Holding reports whether a hold is open.
func (e *Engine) Holding() bool { return e.holding }

// Release ends a hold and ships everything it kept, in send order.
func (e *Engine) Release() {
	e.holding = false
	e.flush()
}

// FlushTo ships, in send order, every message waiting for one site, and
// closes the shipped BackCalls and BackReplies to later joins, so a message
// the site sends there next follows them on the link (R1). Outside a hold
// nothing waits between entry points and it does nothing.
func (e *Engine) FlushTo(to ids.SiteID) {
	for i := range e.out {
		o := &e.out[i]
		if o.to != to || o.kind == outGone {
			continue
		}
		e.ship(*o)
		switch o.kind {
		case outCall:
			e.calls[o.i].shipped = true
		case outReply:
			e.replies[o.i].shipped = true
		}
		o.kind = outGone
	}
}

// --- per-trace records --------------------------------------------------------

// trace returns the trace's record, creating an idle one if absent.
func (e *Engine) trace(t ids.TraceID) *traceState {
	if ts, ok := e.traces[t]; ok {
		return ts
	}
	var ts *traceState
	if n := len(e.freeTraces); n > 0 {
		ts = e.freeTraces[n-1]
		e.freeTraces = e.freeTraces[:n-1]
		*ts = traceState{id: t, inrefs: ts.inrefs[:0], outrefs: ts.outrefs[:0]}
	} else {
		ts = &traceState{id: t}
	}
	e.traces[t] = ts
	e.retire(ts) // dropped at flush unless marks or activity claim it
	return ts
}

// retire queues an idle record for removal when the entry point returns.
func (e *Engine) retire(ts *traceState) {
	if !ts.retiring && !ts.active && !ts.marked {
		ts.retiring = true
		e.idle = append(e.idle, ts)
	}
}

// --- participant-activity tracking (observability) -------------------------

// ensureActivity opens the trace's active period if none is open, firing
// OnParticipantStart on the opening edge.
func (e *Engine) ensureActivity(ts *traceState) {
	if ts.active {
		return
	}
	ts.active, ts.frames, ts.hops = true, 0, 0
	if e.cfg.OnParticipantStart != nil {
		e.cfg.OnParticipantStart(ts.id)
	}
}

// maybeEndActivity fires OnParticipantEnd once the trace has no live
// frames left at this site. Safe to call repeatedly; the period closes on
// the closing edge.
func (e *Engine) maybeEndActivity(ts *traceState) {
	if !ts.active || ts.frames > 0 {
		return
	}
	ts.active = false
	e.retire(ts)
	if e.cfg.OnParticipantEnd != nil {
		e.cfg.OnParticipantEnd(ts.id, ts.hops)
	}
}

// ActiveFrames returns the number of live activation frames (for tests and
// introspection).
func (e *Engine) ActiveFrames() int { return len(e.frames) }

// PendingMarks returns the number of traces whose visit marks this site
// still holds.
func (e *Engine) PendingMarks() int {
	n := 0
	for _, ts := range e.traces {
		if ts.marked {
			n++
		}
	}
	return n
}

// TraceSeq returns the last trace sequence number this engine assigned.
// Checkpointing persists it so a restored incarnation never reissues a
// trace id: visit marks for the dead incarnation's traces survive in PEER
// ioref tables, and a reissued id would read them as "already visited" —
// turning a live structure into a false Garbage verdict.
func (e *Engine) TraceSeq() uint64 { return e.nextTrace }

// SeedTraceSeq advances the trace sequence counter to at least n. Used on
// restore; it never moves the counter backwards.
func (e *Engine) SeedTraceSeq(n uint64) {
	if n > e.nextTrace {
		e.nextTrace = n
	}
}

// --- starting traces ------------------------------------------------------

// Eligible reports whether an outref satisfies the distance policy for
// triggering a back trace: it exists, it is suspected, and its distance has
// crossed its personal back threshold (Section 4.3). It considers neither
// traces already in flight nor memoized verdicts; ShouldStart adds both.
func (e *Engine) Eligible(target ids.Ref) bool {
	o, ok := e.cfg.Table.Outref(target)
	if !ok || o.IsClean(e.cfg.Threshold) {
		return false
	}
	return o.Distance > o.BackThreshold
}

// MemoizedLive reports whether the outref was proven Live at the current
// commit generation; a true result counts a memo hit, since the caller is
// expected to skip the trace it was about to start.
func (e *Engine) MemoizedLive(target ids.Ref) bool {
	if !e.cfg.MemoizeLive {
		return false
	}
	if g, ok := e.memoOut[target]; ok && g == e.gen {
		e.ctr.memoHits.Inc()
		return true
	}
	return false
}

// ShouldStart reports whether a back trace should be triggered from the
// given outref: it is eligible per the distance policy, no trace from this
// engine is already active on it (Section 4.3), and it is not memoized
// Live at the current generation.
func (e *Engine) ShouldStart(target ids.Ref) bool {
	if !e.Eligible(target) {
		return false
	}
	if len(e.byOutref[target]) != 0 {
		return false
	}
	return !e.MemoizedLive(target)
}

// StartTrace initiates one back trace from one or more suspected outrefs
// on this site (Section 4: "we start a back trace from an outref rather
// than an inref"); the paper's trace is the one-suspect case. Suspects that
// are missing or clean are dropped, and with none left no trace starts. The
// suspects share one trace id, and hence one set of visit marks: the first
// suspect to reach a shared ioref explores it, and a later suspect's
// subtree stops at the existing mark with a dependency on the first. Each
// suspect's outermost call returns to its entry of the trace's root join;
// one report phase resolves them all (resolveTrace).
func (e *Engine) StartTrace(targets ...ids.Ref) (ids.TraceID, bool) {
	viable := make([]ids.Ref, 0, len(targets))
	for _, target := range targets {
		if o, ok := e.cfg.Table.Outref(target); ok && !o.IsClean(e.cfg.Threshold) {
			viable = append(viable, target)
		}
	}
	if len(viable) == 0 {
		return ids.NilTrace, false
	}
	defer e.flush()
	e.nextTrace++
	t := ids.TraceID{Initiator: e.cfg.Site, Seq: e.nextTrace}
	e.ctr.started.Inc()
	if len(viable) > 1 {
		e.ctr.batchSize.Max(int64(len(viable)))
	}
	ts := e.trace(t)
	root := &pendingReply{
		msg:     msg.BackReply{Trace: t, Results: make([]msg.BackResult, len(viable))},
		pending: len(viable),
		root:    ts,
	}
	// The initiator is itself a participant, and the root counts as an open
	// frame, so its activity (and root span) stays open until the trace
	// resolves, even when that happens synchronously.
	e.ensureActivity(ts)
	ts.frames++
	for i, target := range viable {
		e.stepLocal(ts, ret{reply: root, entry: i}, target, uint32(i))
	}
	e.maybeEndActivity(ts)
	return t, true
}

// --- message entry points --------------------------------------------------

// HandleBackCall processes a BackCall message from another site: one
// BackStepLocal per step, on this site's outref for the sender's object,
// each with its own frame, visit marks and verdict, answered together by
// one BackReply once every step has returned.
func (e *Engine) HandleBackCall(from ids.SiteID, c msg.BackCall) {
	defer e.flush()
	e.ctr.calls.Inc()
	// Open (or extend) this trace's activity even when the call is answered
	// without creating a frame, so every engagement yields a span pair.
	ts := e.trace(c.Trace)
	e.ensureActivity(ts)
	ts.hops++
	p := &pendingReply{
		to:      from,
		msg:     msg.BackReply{Trace: c.Trace, Results: make([]msg.BackResult, len(c.Steps))},
		pending: len(c.Steps),
	}
	for i, s := range c.Steps {
		e.stepLocal(ts, ret{frame: s.Caller, reply: p, entry: i}, ids.MakeRef(from, s.Outref), s.Suspect)
	}
	e.maybeEndActivity(ts)
}

// HandleBackReply processes a BackReply from another site, folding each
// step's verdict into its caller frame.
func (e *Engine) HandleBackReply(from ids.SiteID, r msg.BackReply) {
	defer e.flush()
	for _, res := range r.Results {
		e.applyReply(res.Caller, res.Result, res.Participants, res.Deps)
	}
}

// HandleReport processes the report phase at a participant (Section 4.5):
// on Garbage, flag the inrefs the trace visited here; on Live, clear the
// visit marks. When only some of a trace's suspects were confirmed garbage,
// the report lists them, and flagging is restricted to the marks they own.
func (e *Engine) HandleReport(from ids.SiteID, r msg.Report) {
	if ts, ok := e.traces[r.Trace]; ok {
		defer e.flush()
		e.finishTraceLocally(ts, r.Outcome, r.GarbageSuspects)
	}
}

// finishTraceLocally clears the trace's visit marks and, on a Garbage
// outcome, flags the visited inrefs: those owned by the suspects in
// garbage, or every one when garbage is empty (all suspects confirmed).
func (e *Engine) finishTraceLocally(ts *traceState, outcome msg.Verdict, garbage []uint32) {
	if !ts.marked {
		return
	}
	ts.marked = false
	e.retire(ts)
	flags := func(suspect uint32) bool {
		if outcome != msg.VerdictGarbage {
			return false
		}
		return len(garbage) == 0 || slices.Contains(garbage, suspect)
	}
	for _, m := range ts.inrefs {
		in, ok := e.cfg.Table.Inref(m.obj)
		if !ok {
			continue
		}
		in.ClearVisited(ts.id)
		if flags(m.suspect) && !in.Garbage {
			e.cfg.Table.FlagGarbage(m.obj)
			e.ctr.flagged.Inc()
			if e.cfg.OnFlagged != nil {
				e.cfg.OnFlagged(m.obj)
			}
		}
	}
	for _, m := range ts.outrefs {
		if o, ok := e.cfg.Table.Outref(m.target); ok {
			o.ClearVisited(ts.id)
		}
	}
	ts.inrefs, ts.outrefs = ts.inrefs[:0], ts.outrefs[:0]
}

// --- the two back steps -----------------------------------------------------

// revisitDeps returns the dependency set for a Garbage revisit answer:
// the mark's owning suspect, unless the revisiting suspect owns the mark
// itself (the ordinary loop case, which needs no demotion bookkeeping).
func revisitDeps(owner, suspect uint32) []uint32 {
	if owner == suspect {
		return nil
	}
	return []uint32{owner}
}

// stepLocal is BackStepLocal (Section 4.4): examine the outref for a
// remote reference on this site and fan out to the inrefs in its inset.
func (e *Engine) stepLocal(ts *traceState, r ret, target ids.Ref, suspect uint32) {
	o, ok := e.cfg.Table.Outref(target)
	if !ok {
		// "its ioref must have been deleted by the garbage collector".
		e.replyTo(r, msg.VerdictGarbage, e.self, nil)
		return
	}
	if o.IsClean(e.cfg.Threshold) {
		e.replyTo(r, msg.VerdictLive, e.self, nil)
		return
	}
	if e.cfg.MemoizeLive {
		if g, ok := e.memoOut[target]; ok && g == e.gen {
			// Proven Live at this generation: answer without fanning out.
			e.ctr.memoHits.Inc()
			e.replyTo(r, msg.VerdictLive, e.self, nil)
			return
		}
	}
	if owner, already := o.MarkVisited(ts.id, suspect); already {
		// Already visited by this trace: avoid loops and revisits. The
		// answer leans on the verdict of the suspect that owns the mark.
		e.replyTo(r, msg.VerdictGarbage, e.self, revisitDeps(owner, suspect))
		return
	}
	e.markHeld(ts)
	ts.outrefs = append(ts.outrefs, outrefMark{target: target, suspect: suspect})
	o.BackThreshold += e.cfg.ThresholdBump // Section 4.3

	f := e.newFrame(ts, r, suspect)
	f.local = true
	f.onOutref = target
	e.byOutref[target] = e.indexAdd(e.byOutref[target], f.seq)

	inset := e.cfg.Inset(target)
	// Fan out to every inref in the inset; these are local calls on this
	// site, so no messages are sent (the paper's message complexity
	// counts only inter-site reference traversals).
	f.pending = len(inset)
	if f.pending == 0 {
		e.completeFrame(f, msg.VerdictGarbage)
		return
	}
	seq := f.seq
	for _, inrefObj := range inset {
		// The frame may complete (via Live short-circuit or the clean
		// rule) while iterating; further calls then have no effect
		// beyond marking, which is harmless. A completed frame's seq no
		// longer matches, even if its struct was reused meanwhile.
		if f.seq != seq {
			return
		}
		e.stepRemote(ts, ret{frame: seq}, inrefObj, suspect)
	}
}

// stepRemote is BackStepRemote (Section 4.4): examine the inref for a
// local object and fan out to the corresponding outrefs on its source
// sites, as one step of the BackCall each source site gets from this entry
// point.
func (e *Engine) stepRemote(ts *traceState, r ret, inrefObj ids.ObjID, suspect uint32) {
	in, ok := e.cfg.Table.Inref(inrefObj)
	if !ok {
		e.replyTo(r, msg.VerdictGarbage, e.self, nil)
		return
	}
	if in.IsClean(e.cfg.Threshold) {
		e.replyTo(r, msg.VerdictLive, e.self, nil)
		return
	}
	if e.cfg.MemoizeLive {
		if g, ok := e.memoIn[inrefObj]; ok && g == e.gen {
			e.ctr.memoHits.Inc()
			e.replyTo(r, msg.VerdictLive, e.self, nil)
			return
		}
	}
	if owner, already := in.MarkVisited(ts.id, suspect); already {
		e.replyTo(r, msg.VerdictGarbage, e.self, revisitDeps(owner, suspect))
		return
	}
	e.markHeld(ts)
	ts.inrefs = append(ts.inrefs, inrefMark{obj: inrefObj, suspect: suspect})
	in.BackThreshold += e.cfg.ThresholdBump

	f := e.newFrame(ts, r, suspect)
	f.onInref = inrefObj
	e.byInref[inrefObj] = e.indexAdd(e.byInref[inrefObj], f.seq)

	e.sources = in.AppendSourceSites(e.sources[:0])
	f.pending = len(e.sources)
	if f.pending == 0 {
		e.completeFrame(f, msg.VerdictGarbage)
		return
	}
	step := msg.BackStep{Caller: f.seq, Outref: inrefObj, Suspect: suspect}
	for _, src := range e.sources {
		e.sendStep(src, ts.id, step)
	}
}

// --- frame bookkeeping -------------------------------------------------------

// newFrame opens a frame with the next seq, reusing a released struct when
// one is free (completeFrame zeroes it, keeping its lists' storage).
func (e *Engine) newFrame(ts *traceState, r ret, suspect uint32) *frame {
	var f *frame
	if n := len(e.freeFrames); n > 0 {
		f = e.freeFrames[n-1]
		e.freeFrames = e.freeFrames[:n-1]
	} else {
		f = &frame{}
		f.participants = f.partBuf[:0]
	}
	e.nextFrame++
	f.seq, f.ts, f.ret, f.suspect, f.gen = e.nextFrame, ts, r, suspect, e.gen
	f.participants = append(f.participants, e.cfg.Site)
	if e.cfg.CallTimeout > 0 {
		f.deadline = e.cfg.Now().Add(e.cfg.CallTimeout)
	}
	e.frames[f.seq] = f
	e.ensureActivity(ts)
	ts.frames++
	return f
}

// indexAdd appends a new frame's seq to an ioref's clean-rule list; seqs
// only grow, so the list stays ascending.
func (e *Engine) indexAdd(seqs []uint64, seq uint64) []uint64 {
	if seqs == nil {
		if n := len(e.seqPool); n > 0 {
			seqs = e.seqPool[n-1]
			e.seqPool = e.seqPool[:n-1]
		}
	}
	return append(seqs, seq)
}

// indexRemove drops a frame's seq from an ioref's clean-rule list,
// returning nil (and pooling the list) once it empties.
func (e *Engine) indexRemove(seqs []uint64, seq uint64) []uint64 {
	if i := slices.Index(seqs, seq); i >= 0 {
		seqs = slices.Delete(seqs, i, i+1)
	}
	if len(seqs) == 0 {
		e.seqPool = append(e.seqPool, seqs)
		return nil
	}
	return seqs
}

// unindexFrame removes a completing frame from the clean-rule index.
func (e *Engine) unindexFrame(f *frame) {
	if f.local {
		if seqs := e.indexRemove(e.byOutref[f.onOutref], f.seq); seqs != nil {
			e.byOutref[f.onOutref] = seqs
		} else {
			delete(e.byOutref, f.onOutref)
		}
		return
	}
	if seqs := e.indexRemove(e.byInref[f.onInref], f.seq); seqs != nil {
		e.byInref[f.onInref] = seqs
	} else {
		delete(e.byInref, f.onInref)
	}
}

// applyReply folds one inner call's result into the frame with the given
// seq. Live short-circuits: the frame completes immediately and later
// replies to it are ignored (their frame is gone). Garbage replies merge
// the subtree's suspect dependencies into the frame for forwarding. A reply
// for a seq no live frame holds is dropped.
func (e *Engine) applyReply(seq uint64, result msg.Verdict, participants []ids.SiteID, deps []uint32) {
	f, ok := e.frames[seq]
	if !ok {
		return // frame already completed (short-circuit, clean rule, timeout)
	}
	for _, p := range participants {
		f.participants = insertSorted(f.participants, p)
	}
	if result == msg.VerdictLive {
		e.completeFrame(f, msg.VerdictLive)
		return
	}
	for _, d := range deps {
		if d != f.suspect {
			f.deps = insertSorted(f.deps, d)
		}
	}
	f.pending--
	if f.pending <= 0 {
		// Every inner call returned Garbage (Live short-circuits above).
		e.completeFrame(f, msg.VerdictGarbage)
	}
}

// insertSorted adds v to an ascending set, in place.
func insertSorted[T cmp.Ordered](set []T, v T) []T {
	i, found := slices.BinarySearch(set, v)
	if found {
		return set
	}
	return slices.Insert(set, i, v)
}

// completeFrame finishes a frame with the given verdict, replying to its
// caller, and releases the frame. A proven-Live completion whose generation
// is still current memoizes the frame's ioref.
func (e *Engine) completeFrame(f *frame, verdict msg.Verdict) {
	delete(e.frames, f.seq)
	e.unindexFrame(f)
	ts := f.ts
	ts.frames--
	if verdict == msg.VerdictLive && e.cfg.MemoizeLive && !f.noMemo && f.gen == e.gen {
		if f.local {
			e.memoOut[f.onOutref] = e.gen
		} else {
			e.memoIn[f.onInref] = e.gen
		}
	}
	var deps []uint32
	if verdict == msg.VerdictGarbage && len(f.deps) > 0 {
		deps = f.deps
	}
	// replyTo only reads the frame's lists, copying what it keeps, so the
	// frame can be released once it returns.
	e.replyTo(f.ret, verdict, f.participants, deps)
	*f = frame{participants: f.participants[:0], deps: f.deps[:0]}
	e.freeFrames = append(e.freeFrames, f)
	e.maybeEndActivity(ts)
}

// replyTo delivers a call's result where r points: into a reply join,
// which once complete is sent to the remote caller or, for a trace's root,
// resolves the trace; or to a frame on this site. participants and deps are
// only read; whatever outlives the call is copied.
func (e *Engine) replyTo(r ret, verdict msg.Verdict, participants []ids.SiteID, deps []uint32) {
	p := r.reply
	if p == nil {
		e.applyReply(r.frame, verdict, participants, deps)
		return
	}
	n := len(p.sites)
	p.sites = append(p.sites, participants...)
	p.msg.Results[r.entry] = msg.BackResult{
		Caller:       r.frame,
		Result:       verdict,
		Participants: p.sites[n:len(p.sites):len(p.sites)],
		Deps:         slices.Clone(deps),
	}
	p.pending--
	if p.pending > 0 {
		return
	}
	if p.root != nil {
		e.resolveTrace(p.root, p.msg.Results)
		return
	}
	e.sendReply(p.to, p.msg)
}

// resolveTrace decides the final verdict of each suspect from its root
// entry and runs the report phase. A suspect's Garbage verdict is
// trustworthy only if every suspect it (transitively) depended on for a
// revisit answer is also Garbage; the fixpoint demotes the rest to Live,
// which is always safe (the suspect stays suspected and retries later,
// Section 4.3). The participants are this site and the union of every
// suspect's subtree.
func (e *Engine) resolveTrace(ts *traceState, results []msg.BackResult) {
	garbage := make([]bool, len(results))
	for i, res := range results {
		garbage[i] = res.Result == msg.VerdictGarbage
	}
	for changed := true; changed; {
		changed = false
		for i, res := range results {
			if !garbage[i] {
				continue
			}
			for _, d := range res.Deps {
				if int(d) != i && (int(d) >= len(garbage) || !garbage[d]) {
					garbage[i] = false
					changed = true
					break
				}
			}
		}
	}
	participants := []ids.SiteID{e.cfg.Site}
	var survivors []uint32
	for i, res := range results {
		for _, p := range res.Participants {
			participants = insertSorted(participants, p)
		}
		if garbage[i] {
			survivors = append(survivors, uint32(i))
		}
	}
	outcome := msg.VerdictLive
	if len(survivors) > 0 {
		outcome = msg.VerdictGarbage
	}
	if len(survivors) == len(results) {
		survivors = nil // every suspect is garbage: flag every mark
	}
	ts.frames-- // release the root's hold on the activity
	e.finishAtInitiator(ts, outcome, participants, survivors)
	e.maybeEndActivity(ts)
}

// finishAtInitiator runs the report phase (Section 4.5): deliver the
// outcome to every participant. The initiator's own marks are processed
// inline; remote participants get Report messages. garbage lists the
// suspects confirmed garbage when only some were; nil flags every mark.
func (e *Engine) finishAtInitiator(ts *traceState, outcome msg.Verdict, participants []ids.SiteID, garbage []uint32) {
	if outcome == msg.VerdictGarbage {
		e.ctr.garbage.Inc()
	} else {
		e.ctr.live.Inc()
	}
	for _, p := range participants {
		if p == e.cfg.Site {
			continue
		}
		e.send(p, msg.Report{Trace: ts.id, Outcome: outcome, GarbageSuspects: garbage})
	}
	e.finishTraceLocally(ts, outcome, garbage)
	if e.cfg.Completed != nil {
		e.cfg.Completed(ts.id, outcome, participants)
	}
}

// --- visit-mark bookkeeping ---------------------------------------------------

// markHeld notes that the trace holds visit marks here, starting the
// lost-report clock on the first one.
func (e *Engine) markHeld(ts *traceState) {
	if ts.marked {
		return
	}
	ts.marked = true
	if e.cfg.ReportTimeout > 0 {
		ts.expiry = e.cfg.Now().Add(e.cfg.ReportTimeout)
	}
}

// --- memoization generations (tentpole layer 2) -----------------------------

// BumpGeneration advances the local-trace commit generation, invalidating
// every memoized Live verdict at once: the commit installed new distances
// and back information, so cached proofs may rest on edges that no longer
// exist. The site calls this from CommitLocalTrace.
func (e *Engine) BumpGeneration() {
	e.gen++
	if len(e.memoIn) > 0 {
		e.memoIn = make(map[ids.ObjID]uint64)
	}
	if len(e.memoOut) > 0 {
		e.memoOut = make(map[ids.Ref]uint64)
	}
}

// --- the clean rule (Section 6.4) ----------------------------------------------

// NotifyCleanedInref implements the clean rule for an inref: every trace
// with a call active on it returns Live, oldest frame first. The ioref's
// cached Live verdict (if any) is dropped too — its cleanliness now
// answers directly, and the Section 6.4 clean events are the memo's point
// invalidations between generation bumps.
func (e *Engine) NotifyCleanedInref(obj ids.ObjID) {
	defer e.flush()
	// Completing a frame removes it from the list and creates no frames.
	for seqs := e.byInref[obj]; len(seqs) > 0; seqs = e.byInref[obj] {
		e.completeFrame(e.frames[seqs[0]], msg.VerdictLive)
	}
	delete(e.memoIn, obj)
}

// NotifyCleanedOutref implements the clean rule for an outref.
func (e *Engine) NotifyCleanedOutref(target ids.Ref) {
	defer e.flush()
	for seqs := e.byOutref[target]; len(seqs) > 0; seqs = e.byOutref[target] {
		e.completeFrame(e.frames[seqs[0]], msg.VerdictLive)
	}
	delete(e.memoOut, target)
}

// --- timeouts (Section 4.6) ------------------------------------------------------

// CheckTimeouts expires overdue frames (assuming their pending calls
// returned Live) and overdue visit marks (assuming the trace's outcome was
// Live). The site calls this periodically.
func (e *Engine) CheckTimeouts() {
	defer e.flush()
	now := e.cfg.Now()
	if e.cfg.CallTimeout > 0 {
		var overdue []uint64
		for seq, f := range e.frames {
			if !f.deadline.IsZero() && now.After(f.deadline) {
				overdue = append(overdue, seq)
			}
		}
		slices.Sort(overdue)
		for _, seq := range overdue {
			if f, ok := e.frames[seq]; ok {
				if e.cfg.OnTimeout != nil {
					e.cfg.OnTimeout(f.ts.id)
				}
				// Assumed Live, not proven (Section 4.6): never memoized.
				f.noMemo = true
				e.completeFrame(f, msg.VerdictLive)
			}
		}
	}
	if e.cfg.ReportTimeout > 0 {
		var expired []*traceState
		for _, ts := range e.traces {
			if ts.marked && !ts.expiry.IsZero() && now.After(ts.expiry) {
				expired = append(expired, ts)
			}
		}
		slices.SortFunc(expired, func(a, b *traceState) int {
			return cmp.Or(cmp.Compare(a.id.Initiator, b.id.Initiator), cmp.Compare(a.id.Seq, b.id.Seq))
		})
		for _, ts := range expired {
			if e.cfg.OnTimeout != nil {
				e.cfg.OnTimeout(ts.id)
			}
			e.finishTraceLocally(ts, msg.VerdictLive, nil)
		}
	}
}
