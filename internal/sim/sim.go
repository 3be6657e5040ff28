// Package sim is the deterministic simulation harness: a single-threaded
// virtual-time scheduler that drives a stepped cluster one event at a time,
// a fault injector, and the safety/completeness oracles of the paper's
// Section 1 claims. Every run is a pure function of (Config, Seed) — or, on
// replay, of (Config, Events) — so any failure the explorer finds shrinks
// to a schedule file that reproduces it exactly.
package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"
	"sort"
	"time"

	"backtrace/internal/ids"
	"backtrace/internal/msg"
	"backtrace/internal/obs"
	"backtrace/internal/site"
)

// Result is the outcome of one simulated run.
type Result struct {
	// Config the world was built from (after defaulting).
	Config Config
	// Events actually applied, in order — a replayable schedule.
	Events []Event
	// Skipped counts replayed events whose preconditions no longer held
	// (shrinking removes events other events depended on; skipping keeps the
	// remainder legal). Always zero for generated runs.
	Skipped int
	// SafetyViolations is non-empty if the safety oracle fired; the run
	// stops at the first violating event (index ViolationStep).
	SafetyViolations []string
	ViolationStep    int
	// CompletenessViolations is non-empty if, after the drain, planted
	// cycles survived (or, for loss-free runs, any garbage at all).
	CompletenessViolations []string
	// Digest fingerprints the run: every event-log line, the wire bytes of
	// every message delivered, the final global audit, and every emitted
	// span. Two runs are the same interleaving iff their digests match.
	Digest string
	// Log is the human-readable per-event log the digest hashes.
	Log []string
	// FaultCtx records what the collector was doing when each crash or
	// partition hit (used to select corpus schedules that actually race a
	// fault against an active back trace or an in-flight report).
	FaultCtx []FaultContext
	// Spans is the number of observability spans the run emitted.
	Spans int
	// Delivered and Dropped count message events.
	Delivered int
	Dropped   int
	// Metrics is the cluster's final metrics snapshot (collector activity:
	// traces run, back traces, messages). Not part of the digest.
	Metrics obs.Snapshot
}

// FaultContext snapshots collector activity at the instant a fault applied.
type FaultContext struct {
	// Step is the index into Events of the fault event.
	Step int
	// Kind is the fault's event kind.
	Kind string
	// ActiveFrames is the number of live back-trace activation frames
	// across all live sites just before the fault.
	ActiveFrames int
	// ReportsInFlight is the number of pending Report messages the fault
	// could affect (crossing the cut for partitions; touching the site for
	// crashes).
	ReportsInFlight int
}

// Failed reports whether either oracle fired.
func (r *Result) Failed() bool {
	return len(r.SafetyViolations) > 0 || len(r.CompletenessViolations) > 0
}

// Violations returns all oracle complaints.
func (r *Result) Violations() []string {
	out := append([]string{}, r.SafetyViolations...)
	return append(out, r.CompletenessViolations...)
}

// runner executes one run: the world plus the digest and log accumulators.
type runner struct {
	w    *world
	res  *Result
	hash hash.Hash
}

func newRunner(w *world) *runner {
	r := &runner{
		w:    w,
		res:  &Result{Config: w.cfg, ViolationStep: -1},
		hash: sha256.New(),
	}
	w.digest = r.hash
	return r
}

// Run generates and executes one seeded run: at each step the scheduler
// either injects the next due fault from the plan or asks the RNG for an
// event, applies it, advances virtual time by one quantum, and evaluates the
// safety oracle. The applied events are recorded, so the returned Result
// doubles as a schedule replayable without the RNG.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.WithDefaults()
	plan, err := ParseFaults(cfg.Faults)
	if err != nil {
		return nil, err
	}
	units := expandFaults(plan)
	w := newWorld(cfg)
	defer w.close()
	r := newRunner(w)
	rng := rand.New(rand.NewSource(cfg.Seed))
	next := 0
	for step := 0; step < cfg.Steps; step++ {
		var ev Event
		if next < len(units) && units[next].step <= step {
			// A drop or dup due while no link has a victim stays due: it
			// takes the next message that can be one.
			if ev = r.faultEvent(units[next], rng); ev.Kind != "" {
				next++
			}
		}
		if ev.Kind == "" {
			ev = r.genEvent(rng)
		}
		if ev.Kind == "" {
			continue
		}
		if !r.apply(&ev) {
			continue
		}
		r.res.Events = append(r.res.Events, ev)
		if viol := r.postEvent(ev); len(viol) > 0 {
			r.res.SafetyViolations = viol
			r.res.ViolationStep = len(r.res.Events) - 1
			break
		}
	}
	r.finish()
	return r.res, nil
}

// Replay executes a recorded event sequence against a freshly built world.
// No RNG is consulted: the events are already concrete. Events whose
// preconditions no longer hold (possible only for shrunk subsequences) are
// skipped, keeping the remainder legal.
func Replay(cfg Config, events []Event) *Result {
	cfg = cfg.WithDefaults()
	w := newWorld(cfg)
	defer w.close()
	r := newRunner(w)
	for _, src := range events {
		ev := src
		if !r.apply(&ev) {
			r.res.Skipped++
			continue
		}
		r.res.Events = append(r.res.Events, ev)
		if viol := r.postEvent(ev); len(viol) > 0 {
			r.res.SafetyViolations = viol
			r.res.ViolationStep = len(r.res.Events) - 1
			break
		}
	}
	r.finish()
	return r.res
}

// apply executes one event if its preconditions hold, mutating ev only to
// record information the generator could not know in advance (the reference
// an alloc returns). It reports whether the event applied.
func (r *runner) apply(ev *Event) bool {
	w := r.w
	net := w.cluster.Net()
	switch ev.Kind {
	case EvDeliver:
		// N > 1 is a burst: up to N messages from the link head, in order.
		// One scheduler event either way — the oracle runs after the burst.
		n := ev.N
		if n < 1 {
			n = 1
		}
		delivered := 0
		for i := 0; i < n; i++ {
			env, ok := w.peekLink(ev.A, ev.B)
			if !ok || !net.DeliverLinkHead(ev.A, ev.B) {
				break
			}
			// A delivered RefTransfer hands the receiver's agent a variable
			// on the payload (the site pinned it with an app root; see
			// site.SendRef) — mirror that in the mutator model.
			if rt, isRT := env.M.(msg.RefTransfer); isRT && !w.crashed[ev.B] {
				w.vars[ev.B] = append(w.vars[ev.B], rt.Payload)
			}
			delivered++
		}
		r.res.Delivered += delivered
		return delivered > 0
	case EvDrop:
		if !net.DropLinkHead(ev.A, ev.B) {
			return false
		}
		w.lossy = true
		r.res.Dropped++
		return true
	case EvDup:
		env, ok := w.peekLink(ev.A, ev.B)
		if !ok || !dupSafe(env.M) || !net.DupLinkHead(ev.A, ev.B) {
			return false
		}
		w.lossy = true // duplication also violates the paper's R1 link model
		return true
	case EvTraceBegin:
		if w.crashed[ev.Site] || w.begun[ev.Site] {
			return false
		}
		w.cluster.Site(ev.Site).BeginLocalTrace()
		w.begun[ev.Site] = true
		return true
	case EvTraceCommit:
		if w.crashed[ev.Site] {
			return false
		}
		// Without a prior trace_begin this is a full local round: compute
		// and commit back-to-back, with nothing interleaved between the
		// phases. A begin/commit pair expresses the interesting split.
		if !w.begun[ev.Site] {
			w.cluster.Site(ev.Site).BeginLocalTrace()
		}
		w.cluster.Site(ev.Site).CommitLocalTrace()
		w.begun[ev.Site] = false
		return true
	case EvTimeouts:
		if w.crashed[ev.Site] {
			return false
		}
		w.cluster.Site(ev.Site).CheckTimeouts()
		return true
	case EvAlloc:
		if w.crashed[ev.Site] {
			return false
		}
		ref := w.cluster.Site(ev.Site).NewObject()
		w.cluster.Site(ev.Site).AddAppRoot(ref)
		w.vars[ev.Site] = append(w.vars[ev.Site], ref)
		ev.Ref = ref
		return true
	case EvRead:
		if w.crashed[ev.Site] || ev.Ref.Site != ev.Site || !w.holdsVar(ev.Site, ev.Ref) {
			return false
		}
		fields, err := w.cluster.Site(ev.Site).Fields(ev.Ref.Obj)
		if err != nil || ev.N < 0 || ev.N >= len(fields) || fields[ev.N].IsZero() {
			return false
		}
		f := fields[ev.N]
		w.cluster.Site(ev.Site).AddAppRoot(f)
		w.vars[ev.Site] = append(w.vars[ev.Site], f)
		return true
	case EvLink:
		if w.crashed[ev.Site] {
			return false
		}
		c := ids.MakeRef(ev.Site, ev.Obj)
		if !w.holdsVar(ev.Site, c) || !w.holdsVar(ev.Site, ev.Ref) {
			return false
		}
		return w.cluster.Site(ev.Site).AddReference(ev.Obj, ev.Ref) == nil
	case EvUnlink:
		if w.crashed[ev.Site] {
			return false
		}
		if !w.holdsVar(ev.Site, ids.MakeRef(ev.Site, ev.Obj)) {
			return false
		}
		return w.cluster.Site(ev.Site).RemoveReference(ev.Obj, ev.Ref) == nil
	case EvSend:
		if w.crashed[ev.Site] || w.crashed[ev.B] || ev.B == ev.Site {
			return false
		}
		// A send across a cut link would be dropped silently; skip so that
		// "lossy" stays an explicit scheduler decision.
		if w.partitioned[cutKey(ev.Site, ev.B)] || !w.holdsVar(ev.Site, ev.Ref) {
			return false
		}
		return w.cluster.Site(ev.Site).SendRef(ev.B, ev.Ref) == nil
	case EvVarDrop:
		if w.crashed[ev.Site] || !w.dropVar(ev.Site, ev.Ref) {
			return false
		}
		w.cluster.Site(ev.Site).DropAppRoot(ev.Ref)
		return true
	case EvCrash:
		if w.crashed[ev.Site] || len(w.liveSites()) <= 1 {
			return false
		}
		r.noteFaultContext(ev)
		return w.crash(ev.Site) == nil
	case EvRestart:
		if !w.crashed[ev.Site] {
			return false
		}
		return w.restart(ev.Site) == nil
	case EvPartition:
		k := cutKey(ev.A, ev.B)
		if ev.A == ev.B || w.partitioned[k] {
			return false
		}
		r.noteFaultContext(ev)
		net.Partition(ev.A, ev.B)
		w.partitioned[k] = true
		w.lossy = true
		return true
	case EvHeal:
		k := cutKey(ev.A, ev.B)
		if !w.partitioned[k] {
			return false
		}
		net.Heal(ev.A, ev.B)
		delete(w.partitioned, k)
		return true
	}
	return false
}

// noteFaultContext records what the collector was doing the instant a crash
// or partition applied.
func (r *runner) noteFaultContext(ev *Event) {
	frames := 0
	for _, s := range r.w.liveSites() {
		frames += r.w.cluster.Site(s).ActiveFrames()
	}
	reports := 0
	for _, env := range r.w.cluster.Net().Pending() {
		if _, isReport := env.M.(msg.Report); !isReport {
			continue
		}
		switch ev.Kind {
		case EvCrash:
			if env.From == ev.Site || env.To == ev.Site {
				reports++
			}
		case EvPartition:
			if cutKey(env.From, env.To) == cutKey(ev.A, ev.B) {
				reports++
			}
		}
	}
	r.res.FaultCtx = append(r.res.FaultCtx, FaultContext{
		Step:            len(r.res.Events),
		Kind:            ev.Kind,
		ActiveFrames:    frames,
		ReportsInFlight: reports,
	})
}

// dupSafe reports whether duplicating m is within the system's contract.
// Update, Insert, and InsertAck are idempotent; the rest (RefTransfer,
// ReleasePin, back-trace calls) are exactly-once messages that the reliable
// session layer deduplicates in production, so the stepped simulator — which
// bypasses that layer — must not duplicate them.
func dupSafe(m msg.Message) bool {
	switch m.(type) {
	case msg.Update, msg.Insert, msg.InsertAck:
		return true
	}
	return false
}

// postEvent advances virtual time one quantum, evaluates the safety oracle,
// and folds the event-log line into the digest. It returns the oracle's
// violations.
func (r *runner) postEvent(ev Event) []string {
	r.w.clk.Advance(quantum)
	snap := r.w.safety()
	line := fmt.Sprintf("%04d %-28s | objs=%d live=%d pend=%d",
		len(r.res.Events)-1, ev.String(), snap.objects, snap.live,
		r.w.cluster.Net().PendingCount())
	r.res.Log = append(r.res.Log, line)
	r.hash.Write([]byte(line))
	r.hash.Write([]byte{'\n'})
	return snap.violations
}

// drainRounds bounds the quiescence phase; each round advances past the
// report timeout, so even traces orphaned by a crash resolve well within it.
const drainRounds = 60

// finish completes the run: unless safety already failed, it heals every
// fault, drains the system to quiescence, and evaluates the completeness
// oracle; then it folds the final state and the span stream into the digest.
func (r *runner) finish() {
	if len(r.res.SafetyViolations) == 0 {
		if errs := r.drain(); len(errs) > 0 {
			r.res.CompletenessViolations = errs
		} else {
			r.res.CompletenessViolations = r.w.completenessViolations()
		}
	}
	r.finalizeDigest()
}

// drain is the deterministic "let the system finish" epilogue: heal all
// partitions, restore all crashed sites, flush the network, then alternate
// timeout scans and full trace rounds — with virtual time jumping past the
// report timeout each round so orphaned back-trace state expires — until no
// garbage and no messages remain.
func (r *runner) drain() []string {
	w := r.w
	var cuts [][2]ids.SiteID
	for k := range w.partitioned {
		cuts = append(cuts, k)
	}
	sort.Slice(cuts, func(i, j int) bool {
		if cuts[i][0] != cuts[j][0] {
			return cuts[i][0] < cuts[j][0]
		}
		return cuts[i][1] < cuts[j][1]
	})
	for _, k := range cuts {
		w.cluster.Net().Heal(k[0], k[1])
		delete(w.partitioned, k)
	}
	for i := 1; i <= w.cfg.Sites; i++ {
		id := ids.SiteID(i)
		if w.crashed[id] {
			if err := w.restart(id); err != nil {
				return []string{fmt.Sprintf("drain: %v", err)}
			}
		}
	}
	for i := 1; i <= w.cfg.Sites; i++ {
		id := ids.SiteID(i)
		if w.begun[id] {
			w.cluster.Site(id).CommitLocalTrace()
			w.begun[id] = false
		}
	}
	// The agents retire: every variable drops, so baited cycles become
	// garbage and the completeness oracle's "all planted cycles collected"
	// applies to them (unless an agent linked a cycle under a persistent
	// root first — the oracle checks final persistent reachability).
	for _, s := range w.liveSites() {
		for _, v := range w.vars[s] {
			w.cluster.Site(s).DropAppRoot(v)
		}
		w.vars[s] = nil
	}
	// Transfers still in flight re-create a mutator hold at the receiver
	// when delivered (handleRefTransfer registers the payload as an app
	// root); the retiring agents drop those holds too, or a reference
	// parked in the network at drain time would keep its target — and any
	// cycle behind it — alive forever. Deliveries never generate new
	// transfers (only mutator sends do), so one sweep covers them all.
	var acquired []struct {
		to  ids.SiteID
		ref ids.Ref
	}
	for _, env := range w.cluster.Net().Pending() {
		if rt, ok := env.M.(msg.RefTransfer); ok {
			acquired = append(acquired, struct {
				to  ids.SiteID
				ref ids.Ref
			}{env.To, rt.Payload})
		}
	}
	w.cluster.Net().DeliverAll()
	for _, a := range acquired {
		w.cluster.Site(a.to).DropAppRoot(a.ref)
	}
	for round := 0; round < drainRounds; round++ {
		w.clk.Advance(simReportTimeout + time.Second)
		w.cluster.CheckAllTimeouts()
		w.cluster.RunRound()
		if w.cluster.GarbageCount() == 0 && w.cluster.Net().PendingCount() == 0 {
			w.cluster.RunRound() // settle trailing acks and farewells
			return nil
		}
	}
	return nil
}

// finalizeDigest folds the end-of-run global audit and the span stream into
// the digest. The audit dump is fully sorted; spans are hashed in emission
// order, which the single-threaded scheduler makes deterministic.
func (r *runner) finalizeDigest() {
	audits, err := r.w.globalAudits()
	if err != nil {
		r.hash.Write([]byte(err.Error()))
	} else {
		for i := 1; i <= r.w.cfg.Sites; i++ {
			id := ids.SiteID(i)
			dumpAudit(r.hash, id, audits[id])
		}
	}
	for _, sp := range r.w.spans.spans {
		b, _ := json.Marshal(sp)
		r.hash.Write(b)
		r.hash.Write([]byte{'\n'})
	}
	r.res.Spans = len(r.w.spans.spans)
	r.res.Digest = hex.EncodeToString(r.hash.Sum(nil))
	r.res.Metrics = r.w.cluster.Metrics()
}

// dumpAudit writes a canonical (sorted) serialization of one site's audit.
func dumpAudit(h hash.Hash, id ids.SiteID, a site.Audit) {
	fmt.Fprintf(h, "audit %v\n", id)
	objs := make([]ids.ObjID, 0, len(a.Objects))
	for o := range a.Objects {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	for _, o := range objs {
		fmt.Fprintf(h, "  obj %v %v\n", o, a.Objects[o])
	}
	proots := append([]ids.ObjID{}, a.PersistentRoots...)
	sort.Slice(proots, func(i, j int) bool { return proots[i] < proots[j] })
	fmt.Fprintf(h, "  proots %v\n", proots)
	aroots := append([]ids.Ref{}, a.AppRoots...)
	sort.Slice(aroots, func(i, j int) bool { return aroots[i].Less(aroots[j]) })
	fmt.Fprintf(h, "  aroots %v\n", aroots)
	outs := make([]ids.Ref, 0, len(a.Outrefs))
	for o := range a.Outrefs {
		outs = append(outs, o)
	}
	sort.Slice(outs, func(i, j int) bool { return outs[i].Less(outs[j]) })
	fmt.Fprintf(h, "  outrefs %v\n", outs)
	ins := make([]ids.ObjID, 0, len(a.InrefSources))
	for o := range a.InrefSources {
		ins = append(ins, o)
	}
	sort.Slice(ins, func(i, j int) bool { return ins[i] < ins[j] })
	for _, o := range ins {
		srcs := append([]ids.SiteID{}, a.InrefSources[o]...)
		sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
		fmt.Fprintf(h, "  inref %v %v\n", o, srcs)
	}
	flagged := append([]ids.ObjID{}, a.GarbageFlagged...)
	sort.Slice(flagged, func(i, j int) bool { return flagged[i] < flagged[j] })
	fmt.Fprintf(h, "  flagged %v\n", flagged)
}

// genEvent asks the RNG for the next event. The weights favour deliveries —
// the collector makes progress only through messages — with mutator churn,
// trace phases, and the occasional timeout scan behind them. The candidate
// sets are enumerated in deterministic order, so one seed always yields one
// schedule.
func (r *runner) genEvent(rng *rand.Rand) Event {
	w := r.w
	live := w.liveSites()
	if len(live) == 0 {
		return Event{}
	}
	links := w.cluster.Net().PendingLinks()
	roll := rng.Intn(100)
	switch {
	case roll < 55 && len(links) > 0:
		l := links[rng.Intn(len(links))]
		ev := Event{Kind: EvDeliver, A: l[0], B: l[1]}
		if rng.Intn(4) == 0 {
			// A burst flushes a backed-up link in one step — deep FIFO
			// queues (a transfer ahead of a pile of updates) are common in
			// the interesting interleavings.
			ev.N = 2 + rng.Intn(6)
		}
		return ev
	case roll < 83:
		return r.genMutate(rng, live)
	case roll < 96:
		s := live[rng.Intn(len(live))]
		if w.begun[s] {
			return Event{Kind: EvTraceCommit, Site: s}
		}
		if rng.Intn(3) == 0 {
			// Bare commit: a full local round in one event.
			return Event{Kind: EvTraceCommit, Site: s}
		}
		return Event{Kind: EvTraceBegin, Site: s}
	default:
		return Event{Kind: EvTimeouts, Site: live[rng.Intn(len(live))]}
	}
}

// genMutate picks one legal mutator operation for a random live site's
// agent. Falls back to alloc — always legal — when the drawn operation has
// no legal operands.
func (r *runner) genMutate(rng *rand.Rand, live []ids.SiteID) Event {
	w := r.w
	s := live[rng.Intn(len(live))]
	alloc := Event{Kind: EvAlloc, Site: s}
	held := w.heldRefs(s)
	containers := w.localContainers(s)
	op := rng.Intn(100)
	switch {
	case op < 15:
		return alloc
	case op < 40: // read a field into a variable
		c := containers[rng.Intn(len(containers))]
		fields, err := w.cluster.Site(s).Fields(c.Obj)
		if err != nil || len(fields) == 0 {
			return alloc
		}
		n := rng.Intn(len(fields))
		if fields[n].IsZero() {
			return alloc
		}
		return Event{Kind: EvRead, Site: s, Ref: c, N: n}
	case op < 65: // store a held reference into a local object
		c := containers[rng.Intn(len(containers))]
		t := held[rng.Intn(len(held))]
		return Event{Kind: EvLink, Site: s, Obj: c.Obj, Ref: t}
	case op < 78: // remove a reference from a local object
		c := containers[rng.Intn(len(containers))]
		fields, err := w.cluster.Site(s).Fields(c.Obj)
		if err != nil || len(fields) == 0 {
			return alloc
		}
		n := rng.Intn(len(fields))
		if fields[n].IsZero() {
			return alloc
		}
		return Event{Kind: EvUnlink, Site: s, Obj: c.Obj, Ref: fields[n]}
	case op < 92: // pass a held reference to another site
		if len(live) < 2 {
			return alloc
		}
		var others []ids.SiteID
		for _, o := range live {
			if o != s {
				others = append(others, o)
			}
		}
		return Event{
			Kind: EvSend,
			Site: s,
			B:    others[rng.Intn(len(others))],
			Ref:  held[rng.Intn(len(held))],
		}
	default: // drop a variable
		if len(w.vars[s]) == 0 {
			return alloc
		}
		return Event{Kind: EvVarDrop, Site: s, Ref: w.vars[s][rng.Intn(len(w.vars[s]))]}
	}
}

// faultEvent turns one fault-plan unit into a concrete event. Drop and dup
// pick their victim link with the RNG; units with no possible victim this
// step yield a zero event (the scheduler moves on).
func (r *runner) faultEvent(u faultOp, rng *rand.Rand) Event {
	switch u.kind {
	case EvCrash:
		return Event{Kind: EvCrash, Site: u.a}
	case EvRestart:
		return Event{Kind: EvRestart, Site: u.a}
	case EvPartition:
		return Event{Kind: EvPartition, A: u.a, B: u.b}
	case EvHeal:
		return Event{Kind: EvHeal, A: u.a, B: u.b}
	case EvDrop:
		links := r.w.cluster.Net().PendingLinks()
		if len(links) == 0 {
			return Event{}
		}
		l := links[rng.Intn(len(links))]
		return Event{Kind: EvDrop, A: l[0], B: l[1]}
	case EvDup:
		var safe [][2]ids.SiteID
		for _, l := range r.w.cluster.Net().PendingLinks() {
			if env, ok := r.w.peekLink(l[0], l[1]); ok && dupSafe(env.M) {
				safe = append(safe, l)
			}
		}
		if len(safe) == 0 {
			return Event{}
		}
		l := safe[rng.Intn(len(safe))]
		return Event{Kind: EvDup, A: l[0], B: l[1]}
	}
	return Event{}
}

// expandFaults turns a parsed plan into single-event units: a drop/dup burst
// of n becomes n units on consecutive steps.
func expandFaults(plan []faultOp) []faultOp {
	var units []faultOp
	for _, op := range plan {
		if op.kind == EvDrop || op.kind == EvDup {
			for i := 0; i < op.n; i++ {
				u := op
				u.step = op.step + i
				u.n = 1
				units = append(units, u)
			}
			continue
		}
		units = append(units, op)
	}
	sort.SliceStable(units, func(i, j int) bool { return units[i].step < units[j].step })
	return units
}

// cutKey normalizes an unordered site pair.
func cutKey(a, b ids.SiteID) [2]ids.SiteID {
	if a > b {
		a, b = b, a
	}
	return [2]ids.SiteID{a, b}
}
