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
// out to, each carrying one BackStep per inter-site reference. A trace
// therefore costs two messages per (handled call, destination site)
// crossing plus one report per participant: 2W+P, which is the paper's
// 2E+P (Section 4.6) whenever every hop crosses a distinct site pair.
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
	"sort"
	"time"

	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/msg"
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
// and a result value to return when the count becomes zero."
type frame struct {
	id    ids.FrameID
	trace ids.TraceID
	ret   ret
	// The ioref the frame is active on: onOutref for a BackStepLocal frame
	// (local set), onInref for a BackStepRemote frame.
	local    bool
	onInref  ids.ObjID
	onOutref ids.Ref
	pending  int
	// suspect is the batch suspect index this frame works on behalf of
	// (always 0 in a single-suspect trace).
	suspect uint32
	// deps accumulates the suspects whose visit marks this frame's
	// Garbage verdict relied on (revisit answers, Section 4.4); forwarded
	// in the reply so the initiator can run the demotion fixpoint.
	deps map[uint32]struct{}
	// gen is the commit generation at frame creation; a Live completion
	// is memoized only if the generation has not moved since, so a
	// concurrent CommitLocalTrace invalidates the proof automatically.
	gen uint64
	// noMemo suppresses memoization for verdicts assumed rather than
	// proven (timeout expiry, Section 4.6).
	noMemo bool
	// participants accumulates the sites reached in this frame's subtree,
	// always including this site.
	participants map[ids.SiteID]struct{}
	deadline     time.Time
}

// ret is where a back step returns its verdict: entry `entry` of the
// BackReply answering a remote caller's BackCall (reply set) or of a batch
// root (batch set), else a frame on this site — the zero frame being the
// outermost call of a single-suspect trace.
type ret struct {
	frame ids.FrameID
	reply *pendingReply
	batch *batchRoot
	entry int
}

// pendingReply is the BackReply to one handled BackCall; it is sent when
// the last of the call's steps has returned.
type pendingReply struct {
	to      ids.SiteID
	msg     msg.BackReply
	pending int
}

// outMsg is one message queued by the current entry point; callKey names
// the BackCall it queued for one (destination site, trace).
type outMsg struct {
	to ids.SiteID
	m  msg.Message
}

type callKey struct {
	to    ids.SiteID
	trace ids.TraceID
}

// inrefMark / outrefMark record one visit mark together with the batch
// suspect that owns it, so the report phase can flag selectively.
type inrefMark struct {
	obj     ids.ObjID
	suspect uint32
}

type outrefMark struct {
	target  ids.Ref
	suspect uint32
}

// traceMarks records, per trace, the iorefs this site has marked visited,
// so the report phase can flag or unmark them (Section 4.5). expiry
// implements the lost-report timeout.
type traceMarks struct {
	inrefs  []inrefMark
	outrefs []outrefMark
	expiry  time.Time
}

// batchRoot is the initiator-side state of a multi-suspect batched trace:
// one trace id, several suspected outrefs, one verdict per suspect. Each
// suspect's outermost call returns to its entry of the root; when all have
// answered, the demotion fixpoint decides which Garbage verdicts are
// trustworthy and one report phase resolves the whole batch (Section 4.5).
type batchRoot struct {
	trace   ids.TraceID
	results []msg.Verdict
	done    []bool
	deps    []map[uint32]struct{}
	pending int
	// participants accumulates the union of every suspect subtree's
	// participant set for the report phase.
	participants map[ids.SiteID]struct{}
}

// traceActivity tracks one trace's live engagement at this site for the
// participant-span observability hooks: how many activation frames exist
// and how many BackCall messages were handled since the activity began.
type traceActivity struct {
	frames int
	hops   int
}

// Engine is one site's back-tracing engine.
type Engine struct {
	cfg Config

	nextTrace uint64
	nextFrame uint64
	frames    map[ids.FrameID]*frame
	// byInref/byOutref index the frames active on each ioref, for the
	// clean rule (Section 6.4).
	byInref  map[ids.ObjID]map[ids.FrameID]struct{}
	byOutref map[ids.Ref]map[ids.FrameID]struct{}
	marks    map[ids.TraceID]*traceMarks
	// activity tracks the traces currently active at this site, for the
	// participant-span hooks.
	activity map[ids.TraceID]*traceActivity

	// gen is the local-trace commit generation (bumped by CommitLocalTrace
	// via BumpGeneration); memoIn/memoOut record the generation at which an
	// ioref was last proven Live. An entry is valid only while its stamp
	// equals gen, so a commit invalidates every cached verdict at once.
	gen     uint64
	memoIn  map[ids.ObjID]uint64
	memoOut map[ids.Ref]uint64

	// out holds the messages the current entry point sends, in send order;
	// calls indexes its BackCall per (destination, trace) so later steps
	// join it. flush ships them when the entry point returns.
	out   []outMsg
	calls map[callKey]int
}

// NewEngine creates an engine for a site.
func NewEngine(cfg Config) *Engine {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Engine{
		cfg:      cfg,
		frames:   make(map[ids.FrameID]*frame),
		byInref:  make(map[ids.ObjID]map[ids.FrameID]struct{}),
		byOutref: make(map[ids.Ref]map[ids.FrameID]struct{}),
		marks:    make(map[ids.TraceID]*traceMarks),
		activity: make(map[ids.TraceID]*traceActivity),
		memoIn:   make(map[ids.ObjID]uint64),
		memoOut:  make(map[ids.Ref]uint64),
		calls:    make(map[callKey]int),
	}
}

// send queues a message for the end of the current entry point.
func (e *Engine) send(to ids.SiteID, m msg.Message) {
	e.out = append(e.out, outMsg{to: to, m: m})
}

// sendStep queues one back step for a source site, joining the BackCall
// this entry point already queued for the same (destination, trace).
// Joining an earlier call only ever moves a step ahead of messages queued
// after that call, never a reply ahead of a call.
func (e *Engine) sendStep(to ids.SiteID, t ids.TraceID, initiator ids.SiteID, step msg.BackStep) {
	k := callKey{to: to, trace: t}
	if i, ok := e.calls[k]; ok {
		c := e.out[i].m.(msg.BackCall)
		c.Steps = append(c.Steps, step)
		e.out[i].m = c
		return
	}
	e.calls[k] = len(e.out)
	e.send(to, msg.BackCall{Trace: t, Initiator: initiator, Steps: []msg.BackStep{step}})
}

// flush ships the current entry point's messages in send order. Every
// exported method that can send defers it.
func (e *Engine) flush() {
	for _, o := range e.out {
		e.cfg.Send(o.to, o.m)
	}
	clear(e.out)
	e.out = e.out[:0]
	clear(e.calls)
}

// --- participant-activity tracking (observability) -------------------------

// ensureActivity opens (or returns) the trace's activity record, firing
// OnParticipantStart on the opening edge.
func (e *Engine) ensureActivity(t ids.TraceID) *traceActivity {
	a, ok := e.activity[t]
	if !ok {
		a = &traceActivity{}
		e.activity[t] = a
		if e.cfg.OnParticipantStart != nil {
			e.cfg.OnParticipantStart(t)
		}
	}
	return a
}

// maybeEndActivity fires OnParticipantEnd once the trace has no live
// frames left at this site. Safe to call repeatedly; the activity record
// is removed on the closing edge.
func (e *Engine) maybeEndActivity(t ids.TraceID) {
	a, ok := e.activity[t]
	if !ok || a.frames > 0 {
		return
	}
	delete(e.activity, t)
	if e.cfg.OnParticipantEnd != nil {
		e.cfg.OnParticipantEnd(t, a.hops)
	}
}

// SetThreshold updates the suspicion threshold (used by the adaptive
// threshold controller).
func (e *Engine) SetThreshold(t int) { e.cfg.Threshold = t }

// ActiveFrames returns the number of live activation frames (for tests and
// introspection).
func (e *Engine) ActiveFrames() int { return len(e.frames) }

// PendingMarks returns the number of traces whose visit marks this site
// still holds.
func (e *Engine) PendingMarks() int { return len(e.marks) }

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

func (e *Engine) count(name string) {
	if e.cfg.Counters != nil {
		e.cfg.Counters.Inc(name)
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
		e.count(metrics.BackTraceMemoHits)
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

// StartTrace initiates a back trace from a suspected outref on this site
// (Section 4: "we start a back trace from an outref rather than an inref").
// It returns the trace id and false if the outref is missing or clean.
func (e *Engine) StartTrace(target ids.Ref) (ids.TraceID, bool) {
	o, ok := e.cfg.Table.Outref(target)
	if !ok || o.IsClean(e.cfg.Threshold) {
		return ids.NilTrace, false
	}
	defer e.flush()
	e.nextTrace++
	t := ids.TraceID{Initiator: e.cfg.Site, Seq: e.nextTrace}
	e.count(metrics.BackTracesStarted)
	// The initiator is itself a participant: open its activity before the
	// outermost call so even a synchronous completion emits a span pair.
	e.ensureActivity(t)
	// The outermost call: caller is the nil frame on this site.
	e.stepLocal(t, e.cfg.Site, ret{}, target, 0)
	e.maybeEndActivity(t)
	return t, true
}

// StartBatchTrace initiates one back trace carrying several suspected
// outrefs whose insets overlap. The trace shares one id (and hence one set
// of visit marks) across all suspects: the first suspect to reach a shared
// ioref explores it, later suspects' subtrees stop at the existing mark
// with a recorded dependency, and a single report phase resolves the whole
// batch — a Garbage verdict flags every ioref visited on behalf of a
// garbage-confirmed suspect (Section 4.5), a Live verdict resolves only the
// suspects actually proven reachable.
//
// Suspects that are missing or clean are dropped; with zero viable
// suspects no trace starts, and with exactly one the call degenerates to
// StartTrace.
func (e *Engine) StartBatchTrace(targets []ids.Ref) (ids.TraceID, bool) {
	viable := make([]ids.Ref, 0, len(targets))
	for _, target := range targets {
		if o, ok := e.cfg.Table.Outref(target); ok && !o.IsClean(e.cfg.Threshold) {
			viable = append(viable, target)
		}
	}
	switch len(viable) {
	case 0:
		return ids.NilTrace, false
	case 1:
		return e.StartTrace(viable[0])
	}
	defer e.flush()
	e.nextTrace++
	t := ids.TraceID{Initiator: e.cfg.Site, Seq: e.nextTrace}
	e.count(metrics.BackTracesStarted)
	if e.cfg.Counters != nil {
		e.cfg.Counters.Max(metrics.BackTraceBatchSize, int64(len(viable)))
	}
	b := &batchRoot{
		trace:        t,
		results:      make([]msg.Verdict, len(viable)),
		done:         make([]bool, len(viable)),
		deps:         make([]map[uint32]struct{}, len(viable)),
		pending:      len(viable),
		participants: map[ids.SiteID]struct{}{e.cfg.Site: {}},
	}
	// The batch root counts as an open frame so the initiator's activity
	// (and root span) stays open until the batch resolves.
	e.ensureActivity(t).frames++
	for i, target := range viable {
		// Each suspect's outermost call returns to its entry of the root;
		// overlap shows up as an immediate revisit answer with a
		// dependency on the first-visiting suspect.
		e.stepLocal(t, e.cfg.Site, ret{batch: b, entry: i}, target, uint32(i))
	}
	e.maybeEndActivity(t)
	return t, true
}

// --- message entry points --------------------------------------------------

// HandleBackCall processes a BackCall message from another site: one
// BackStepLocal per step, each with its own frame, visit marks and verdict,
// answered together by one BackReply once every step has returned.
func (e *Engine) HandleBackCall(from ids.SiteID, c msg.BackCall) {
	defer e.flush()
	e.count(metrics.BackTraceCalls)
	// Open (or extend) this trace's activity even when the call is answered
	// without creating a frame, so every engagement yields a span pair.
	e.ensureActivity(c.Trace).hops++
	p := &pendingReply{
		to:      from,
		msg:     msg.BackReply{Trace: c.Trace, Results: make([]msg.BackResult, len(c.Steps))},
		pending: len(c.Steps),
	}
	for i, s := range c.Steps {
		e.stepLocal(c.Trace, c.Initiator, ret{frame: s.Caller, reply: p, entry: i}, s.Outref, s.Suspect)
	}
	e.maybeEndActivity(c.Trace)
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
// visit marks. For a batched trace the report's garbage-suspect set
// restricts flagging to marks owned by suspects confirmed garbage.
func (e *Engine) HandleReport(from ids.SiteID, r msg.Report) {
	e.finishTraceLocally(r.Trace, r.Outcome, r.GarbageSuspects)
}

// finishTraceLocally clears the trace's visit marks and, on a Garbage
// outcome, flags the visited inrefs. garbage is the batch form's set of
// garbage-confirmed suspects; empty means the single-suspect form, which
// flags every visited inref.
func (e *Engine) finishTraceLocally(t ids.TraceID, outcome msg.Verdict, garbage []uint32) {
	tm, ok := e.marks[t]
	if !ok {
		return
	}
	delete(e.marks, t)
	var gset map[uint32]struct{}
	if len(garbage) > 0 {
		gset = make(map[uint32]struct{}, len(garbage))
		for _, s := range garbage {
			gset[s] = struct{}{}
		}
	}
	flags := func(suspect uint32) bool {
		if outcome != msg.VerdictGarbage {
			return false
		}
		if gset == nil {
			return true
		}
		_, ok := gset[suspect]
		return ok
	}
	for _, m := range tm.inrefs {
		in, ok := e.cfg.Table.Inref(m.obj)
		if !ok {
			continue
		}
		in.ClearVisited(t)
		if flags(m.suspect) && !in.Garbage {
			e.cfg.Table.FlagGarbage(m.obj)
			e.count(metrics.InrefsFlagged)
			if e.cfg.OnFlagged != nil {
				e.cfg.OnFlagged(m.obj)
			}
		}
	}
	for _, m := range tm.outrefs {
		if o, ok := e.cfg.Table.Outref(m.target); ok {
			o.ClearVisited(t)
		}
	}
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
func (e *Engine) stepLocal(t ids.TraceID, initiator ids.SiteID, r ret, target ids.Ref, suspect uint32) {
	o, ok := e.cfg.Table.Outref(target)
	if !ok {
		// "its ioref must have been deleted by the garbage collector".
		e.replyTo(r, t, msg.VerdictGarbage, e.selfParticipants(), nil)
		return
	}
	if o.IsClean(e.cfg.Threshold) {
		e.replyTo(r, t, msg.VerdictLive, e.selfParticipants(), nil)
		return
	}
	if e.cfg.MemoizeLive {
		if g, ok := e.memoOut[target]; ok && g == e.gen {
			// Proven Live at this generation: answer without fanning out.
			e.count(metrics.BackTraceMemoHits)
			e.replyTo(r, t, msg.VerdictLive, e.selfParticipants(), nil)
			return
		}
	}
	if owner, already := o.MarkVisited(t, suspect); already {
		// Already visited by this trace: avoid loops and revisits. In a
		// batched trace the answer leans on the owning suspect's verdict.
		e.replyTo(r, t, msg.VerdictGarbage, e.selfParticipants(), revisitDeps(owner, suspect))
		return
	}
	e.recordOutrefMark(t, target, suspect)
	o.BackThreshold += e.cfg.ThresholdBump // Section 4.3

	f := e.newFrame(t, r, suspect)
	f.local = true
	f.onOutref = target
	e.indexFrame(f)

	inset := e.cfg.Inset(target)
	// Fan out to every inref in the inset; these are local calls on this
	// site, so no messages are sent (the paper's message complexity
	// counts only inter-site reference traversals).
	f.pending = len(inset)
	if f.pending == 0 {
		e.completeFrame(f, msg.VerdictGarbage)
		return
	}
	fid := f.id
	for _, inrefObj := range inset {
		// The frame may complete (via Live short-circuit or the clean
		// rule) while iterating; further calls then have no effect
		// beyond marking, which is harmless.
		if _, alive := e.frames[fid]; !alive {
			return
		}
		e.stepRemote(t, initiator, ret{frame: fid}, inrefObj, suspect)
	}
}

// stepRemote is BackStepRemote (Section 4.4): examine the inref for a
// local object and fan out to the corresponding outrefs on its source
// sites, as one step of the BackCall each source site gets from this entry
// point.
func (e *Engine) stepRemote(t ids.TraceID, initiator ids.SiteID, r ret, inrefObj ids.ObjID, suspect uint32) {
	in, ok := e.cfg.Table.Inref(inrefObj)
	if !ok {
		e.replyTo(r, t, msg.VerdictGarbage, e.selfParticipants(), nil)
		return
	}
	if in.IsClean(e.cfg.Threshold) {
		e.replyTo(r, t, msg.VerdictLive, e.selfParticipants(), nil)
		return
	}
	if e.cfg.MemoizeLive {
		if g, ok := e.memoIn[inrefObj]; ok && g == e.gen {
			e.count(metrics.BackTraceMemoHits)
			e.replyTo(r, t, msg.VerdictLive, e.selfParticipants(), nil)
			return
		}
	}
	if owner, already := in.MarkVisited(t, suspect); already {
		e.replyTo(r, t, msg.VerdictGarbage, e.selfParticipants(), revisitDeps(owner, suspect))
		return
	}
	e.recordInrefMark(t, inrefObj, suspect)
	in.BackThreshold += e.cfg.ThresholdBump

	f := e.newFrame(t, r, suspect)
	f.onInref = inrefObj
	e.indexFrame(f)

	sources := in.SourceSites()
	f.pending = len(sources)
	if f.pending == 0 {
		e.completeFrame(f, msg.VerdictGarbage)
		return
	}
	step := msg.BackStep{Caller: f.id, Outref: ids.MakeRef(e.cfg.Site, inrefObj), Suspect: suspect}
	for _, src := range sources {
		e.sendStep(src, t, initiator, step)
	}
}

// --- frame bookkeeping -------------------------------------------------------

func (e *Engine) newFrame(t ids.TraceID, r ret, suspect uint32) *frame {
	e.nextFrame++
	f := &frame{
		id:           ids.FrameID{Site: e.cfg.Site, Seq: e.nextFrame},
		trace:        t,
		ret:          r,
		suspect:      suspect,
		gen:          e.gen,
		participants: map[ids.SiteID]struct{}{e.cfg.Site: {}},
	}
	if e.cfg.CallTimeout > 0 {
		f.deadline = e.cfg.Now().Add(e.cfg.CallTimeout)
	}
	e.frames[f.id] = f
	e.ensureActivity(t).frames++
	return f
}

func (e *Engine) indexFrame(f *frame) {
	if f.local {
		addFrame(e.byOutref, f.onOutref, f.id)
	} else {
		addFrame(e.byInref, f.onInref, f.id)
	}
}

func (e *Engine) unindexFrame(f *frame) {
	if f.local {
		removeFrame(e.byOutref, f.onOutref, f.id)
	} else {
		removeFrame(e.byInref, f.onInref, f.id)
	}
}

// addFrame and removeFrame maintain an ioref → active-frames index.
func addFrame[K comparable](index map[K]map[ids.FrameID]struct{}, k K, id ids.FrameID) {
	set := index[k]
	if set == nil {
		set = make(map[ids.FrameID]struct{})
		index[k] = set
	}
	set[id] = struct{}{}
}

func removeFrame[K comparable](index map[K]map[ids.FrameID]struct{}, k K, id ids.FrameID) {
	if set := index[k]; set != nil {
		delete(set, id)
		if len(set) == 0 {
			delete(index, k)
		}
	}
}

// applyReply folds one inner call's result into its frame (or batch root
// slot). Live short-circuits: the frame completes immediately and later
// replies to it are ignored (their frame is gone). Garbage replies merge
// the subtree's suspect dependencies into the frame for forwarding.
func (e *Engine) applyReply(fid ids.FrameID, result msg.Verdict, participants []ids.SiteID, deps []uint32) {
	f, ok := e.frames[fid]
	if !ok {
		return // frame already completed (short-circuit, clean rule, timeout)
	}
	for _, p := range participants {
		f.participants[p] = struct{}{}
	}
	if result == msg.VerdictLive {
		e.completeFrame(f, msg.VerdictLive)
		return
	}
	for _, d := range deps {
		if d != f.suspect {
			if f.deps == nil {
				f.deps = make(map[uint32]struct{})
			}
			f.deps[d] = struct{}{}
		}
	}
	f.pending--
	if f.pending <= 0 {
		// Every inner call returned Garbage (Live short-circuits above).
		e.completeFrame(f, msg.VerdictGarbage)
	}
}

// completeFrame finishes a frame with the given verdict, replying to the
// caller or — for the outermost frame — running the report phase. A
// proven-Live completion whose generation is still current memoizes the
// frame's ioref.
func (e *Engine) completeFrame(f *frame, verdict msg.Verdict) {
	delete(e.frames, f.id)
	e.unindexFrame(f)
	if a, ok := e.activity[f.trace]; ok {
		a.frames--
	}
	defer e.maybeEndActivity(f.trace)
	if verdict == msg.VerdictLive && e.cfg.MemoizeLive && !f.noMemo && f.gen == e.gen {
		if f.local {
			e.memoOut[f.onOutref] = e.gen
		} else {
			e.memoIn[f.onInref] = e.gen
		}
	}
	var deps []uint32
	if verdict == msg.VerdictGarbage {
		deps = sortedKeys(f.deps)
	}
	e.replyTo(f.ret, f.trace, verdict, sortedKeys(f.participants), deps)
}

// sortedKeys returns a set's members in ascending order, nil when empty.
func sortedKeys[K ~uint32](set map[K]struct{}) []K {
	if len(set) == 0 {
		return nil
	}
	out := make([]K, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// replyTo delivers a call's result where r points: into the BackReply
// being assembled for a remote caller (sent once its last step returns),
// to a frame on this site, or — for the outermost call — into the report
// phase.
func (e *Engine) replyTo(r ret, t ids.TraceID, verdict msg.Verdict, participants []ids.SiteID, deps []uint32) {
	switch p := r.reply; {
	case p != nil:
		p.msg.Results[r.entry] = msg.BackResult{Caller: r.frame, Result: verdict, Participants: participants, Deps: deps}
		p.pending--
		if p.pending == 0 {
			e.send(p.to, p.msg)
		}
	case r.batch != nil:
		e.applyBatchReply(r.batch, r.entry, verdict, participants, deps)
	case r.frame.IsZero():
		e.finishAtInitiator(t, verdict, participants, nil)
	default:
		e.applyReply(r.frame, verdict, participants, deps)
	}
}

// applyBatchReply folds one suspect's outermost result into its batch
// root; the last reply resolves the batch.
func (e *Engine) applyBatchReply(b *batchRoot, i int, result msg.Verdict, participants []ids.SiteID, deps []uint32) {
	if b.done[i] {
		return
	}
	for _, p := range participants {
		b.participants[p] = struct{}{}
	}
	b.results[i] = result
	b.done[i] = true
	if result == msg.VerdictGarbage {
		for _, d := range deps {
			if d == uint32(i) {
				continue
			}
			if b.deps[i] == nil {
				b.deps[i] = make(map[uint32]struct{})
			}
			b.deps[i][d] = struct{}{}
		}
	}
	b.pending--
	if b.pending == 0 {
		e.resolveBatch(b)
	}
}

// resolveBatch decides the final per-suspect verdicts of a batched trace
// and runs its report phase. A suspect's Garbage verdict is trustworthy
// only if every suspect it (transitively) depended on for a revisit answer
// is also Garbage — the fixpoint demotes the rest to Live, which is always
// safe (the suspect stays suspected and retries later, Section 4.3).
func (e *Engine) resolveBatch(b *batchRoot) {
	garbage := make([]bool, len(b.results))
	for i := range garbage {
		garbage[i] = b.results[i] == msg.VerdictGarbage
	}
	for changed := true; changed; {
		changed = false
		for i := range garbage {
			if !garbage[i] {
				continue
			}
			for d := range b.deps[i] {
				if int(d) >= len(garbage) || !garbage[d] {
					garbage[i] = false
					changed = true
					break
				}
			}
		}
	}
	var gs []uint32
	for i, g := range garbage {
		if g {
			gs = append(gs, uint32(i))
		}
	}
	outcome := msg.VerdictLive
	if len(gs) > 0 {
		outcome = msg.VerdictGarbage
	}
	if a, ok := e.activity[b.trace]; ok {
		a.frames-- // release the batch root's hold on the activity
	}
	defer e.maybeEndActivity(b.trace)
	e.finishAtInitiator(b.trace, outcome, sortedKeys(b.participants), gs)
}

// finishAtInitiator runs the report phase (Section 4.5): deliver the
// outcome to every participant. The initiator's own marks are processed
// inline; remote participants get Report messages. garbage is a batch's
// set of garbage-confirmed suspects (nil for a single-suspect trace).
func (e *Engine) finishAtInitiator(t ids.TraceID, outcome msg.Verdict, participants []ids.SiteID, garbage []uint32) {
	if outcome == msg.VerdictGarbage {
		e.count(metrics.BackTracesGarbage)
	} else {
		e.count(metrics.BackTracesLive)
	}
	for _, p := range participants {
		if p == e.cfg.Site {
			continue
		}
		e.send(p, msg.Report{Trace: t, Outcome: outcome, GarbageSuspects: garbage})
	}
	e.finishTraceLocally(t, outcome, garbage)
	if e.cfg.Completed != nil {
		e.cfg.Completed(t, outcome, participants)
	}
}

func (e *Engine) selfParticipants() []ids.SiteID {
	return []ids.SiteID{e.cfg.Site}
}

// --- visit-mark bookkeeping ---------------------------------------------------

func (e *Engine) marksFor(t ids.TraceID) *traceMarks {
	tm, ok := e.marks[t]
	if !ok {
		tm = &traceMarks{}
		if e.cfg.ReportTimeout > 0 {
			tm.expiry = e.cfg.Now().Add(e.cfg.ReportTimeout)
		}
		e.marks[t] = tm
	}
	return tm
}

func (e *Engine) recordInrefMark(t ids.TraceID, obj ids.ObjID, suspect uint32) {
	tm := e.marksFor(t)
	tm.inrefs = append(tm.inrefs, inrefMark{obj: obj, suspect: suspect})
}

func (e *Engine) recordOutrefMark(t ids.TraceID, target ids.Ref, suspect uint32) {
	tm := e.marksFor(t)
	tm.outrefs = append(tm.outrefs, outrefMark{target: target, suspect: suspect})
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
// with a call active on it returns Live. The ioref's cached Live verdict
// (if any) is dropped too — its cleanliness now answers directly, and the
// Section 6.4 clean events are the memo's point invalidations between
// generation bumps.
func (e *Engine) NotifyCleanedInref(obj ids.ObjID) {
	defer e.flush()
	e.forceLive(e.byInref[obj])
	delete(e.memoIn, obj)
}

// NotifyCleanedOutref implements the clean rule for an outref.
func (e *Engine) NotifyCleanedOutref(target ids.Ref) {
	defer e.flush()
	e.forceLive(e.byOutref[target])
	delete(e.memoOut, target)
}

func (e *Engine) forceLive(set map[ids.FrameID]struct{}) {
	if len(set) == 0 {
		return
	}
	fids := make([]ids.FrameID, 0, len(set))
	for fid := range set {
		fids = append(fids, fid)
	}
	sort.Slice(fids, func(i, j int) bool {
		if fids[i].Site != fids[j].Site {
			return fids[i].Site < fids[j].Site
		}
		return fids[i].Seq < fids[j].Seq
	})
	for _, fid := range fids {
		if f, ok := e.frames[fid]; ok {
			e.completeFrame(f, msg.VerdictLive)
		}
	}
}

// --- timeouts (Section 4.6) ------------------------------------------------------

// CheckTimeouts expires overdue frames (assuming their pending calls
// returned Live) and overdue visit marks (assuming the trace's outcome was
// Live). The site calls this periodically.
func (e *Engine) CheckTimeouts() {
	defer e.flush()
	now := e.cfg.Now()
	if e.cfg.CallTimeout > 0 {
		var overdue []*frame
		for _, f := range e.frames {
			if !f.deadline.IsZero() && now.After(f.deadline) {
				overdue = append(overdue, f)
			}
		}
		sort.Slice(overdue, func(i, j int) bool { return overdue[i].id.Seq < overdue[j].id.Seq })
		for _, f := range overdue {
			if _, ok := e.frames[f.id]; ok {
				if e.cfg.OnTimeout != nil {
					e.cfg.OnTimeout(f.trace)
				}
				// Assumed Live, not proven (Section 4.6): never memoized.
				f.noMemo = true
				e.completeFrame(f, msg.VerdictLive)
			}
		}
	}
	if e.cfg.ReportTimeout > 0 {
		var expired []ids.TraceID
		for t, tm := range e.marks {
			if !tm.expiry.IsZero() && now.After(tm.expiry) {
				expired = append(expired, t)
			}
		}
		sort.Slice(expired, func(i, j int) bool { return expired[i].Less(expired[j]) })
		for _, t := range expired {
			if e.cfg.OnTimeout != nil {
				e.cfg.OnTimeout(t)
			}
			e.finishTraceLocally(t, msg.VerdictLive, nil)
		}
	}
}
