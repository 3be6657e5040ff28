package core

import (
	"testing"
	"time"

	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/msg"
	"backtrace/internal/refs"
)

// rig wires several engines together with an explicit message queue, so
// tests control delivery order deterministically and can drop or delay
// messages at precise points.
type rig struct {
	t        *testing.T
	engines  map[ids.SiteID]*Engine
	tables   map[ids.SiteID]*refs.Table
	insets   map[ids.SiteID]map[ids.Ref][]ids.ObjID
	queue    []msg.Envelope
	counters *metrics.Counters
	done     []completion
	reports  []msg.Report
	now      time.Time
}

type completion struct {
	trace        ids.TraceID
	outcome      msg.Verdict
	participants []ids.SiteID
}

const (
	rigThreshold = 4
	rigT2        = 10
	rigBump      = 5
)

func newRig(t *testing.T, sites ...ids.SiteID) *rig {
	t.Helper()
	r := &rig{
		t:        t,
		engines:  make(map[ids.SiteID]*Engine),
		tables:   make(map[ids.SiteID]*refs.Table),
		insets:   make(map[ids.SiteID]map[ids.Ref][]ids.ObjID),
		counters: &metrics.Counters{},
		now:      time.Unix(1000, 0),
	}
	for _, s := range sites {
		site := s
		tbl := refs.NewTable(site, rigT2)
		r.tables[site] = tbl
		r.insets[site] = make(map[ids.Ref][]ids.ObjID)
		r.engines[site] = NewEngine(Config{
			Site:          site,
			Threshold:     rigThreshold,
			ThresholdBump: rigBump,
			CallTimeout:   time.Minute,
			ReportTimeout: 5 * time.Minute,
			Send: func(to ids.SiteID, m msg.Message) {
				r.queue = append(r.queue, msg.Envelope{From: site, To: to, M: m})
				r.counters.ObserveMessage(msg.Envelope{From: site, To: to, M: m}, false)
			},
			Table: tbl,
			Inset: func(target ids.Ref) []ids.ObjID {
				return r.insets[site][target]
			},
			Now: func() time.Time { return r.now },
			Completed: func(tr ids.TraceID, outcome msg.Verdict, parts []ids.SiteID) {
				r.done = append(r.done, completion{trace: tr, outcome: outcome, participants: parts})
			},
			Counters: r.counters,
		})
	}
	return r
}

// metric reads a counter or gauge the engines recorded.
func (r *rig) metric(name string) int64 { return r.counters.Registry().Snapshot().Get(name) }

// pump delivers every queued message (and messages those deliveries
// enqueue) in FIFO order.
func (r *rig) pump() {
	for len(r.queue) > 0 {
		env := r.queue[0]
		r.queue = r.queue[1:]
		r.deliver(env)
	}
}

func (r *rig) deliver(env msg.Envelope) {
	e, ok := r.engines[env.To]
	if !ok {
		return
	}
	switch m := env.M.(type) {
	case msg.BackCall:
		e.HandleBackCall(env.From, m)
	case msg.BackReply:
		e.HandleBackReply(env.From, m)
	case msg.Report:
		r.reports = append(r.reports, m)
		e.HandleReport(env.From, m)
	default:
		r.t.Fatalf("rig: unexpected message %s", msg.Name(env.M))
	}
}

// dropWhere removes queued messages matching pred, returning how many.
func (r *rig) dropWhere(pred func(msg.Envelope) bool) int {
	kept := r.queue[:0]
	n := 0
	for _, env := range r.queue {
		if pred(env) {
			n++
			continue
		}
		kept = append(kept, env)
	}
	r.queue = kept
	return n
}

// addSuspectInref installs an inref for obj at site with the given sources,
// all at a suspected distance.
func (r *rig) addSuspectInref(site ids.SiteID, obj ids.ObjID, dist int, sources ...ids.SiteID) {
	tbl := r.tables[site]
	for _, src := range sources {
		tbl.AddSource(obj, src)
		tbl.SetSourceDistance(obj, src, dist)
	}
}

// addOutref installs an outref at site for target with distance and inset.
func (r *rig) addOutref(site ids.SiteID, target ids.Ref, dist int, inset ...ids.ObjID) {
	o, _ := r.tables[site].EnsureOutref(target)
	o.Distance = dist
	o.Barrier = false
	r.insets[site][target] = inset
}

// buildRing builds an n-site garbage ring: site i has object 1 with an
// inref sourced from the previous site, and an outref to the next site's
// object 1 whose inset is {object 1}. Every ioref is suspected (distance
// well beyond rigThreshold and rigT2).
func (r *rig) buildRing(n int, dist int) {
	for i := 1; i <= n; i++ {
		site := ids.SiteID(i)
		prev := ids.SiteID((i+n-2)%n + 1)
		next := ids.SiteID(i%n + 1)
		r.addSuspectInref(site, 1, dist, prev)
		r.addOutref(site, ids.MakeRef(next, 1), dist+1, 1)
	}
}

func (r *rig) flaggedGarbage(site ids.SiteID, obj ids.ObjID) bool {
	in, ok := r.tables[site].Inref(obj)
	return ok && in.Garbage
}

func TestTwoSiteCycleConfirmedGarbage(t *testing.T) {
	r := newRig(t, 1, 2)
	r.buildRing(2, 40)

	tr, started := r.engines[1].StartTrace(ids.MakeRef(2, 1))
	if !started {
		t.Fatal("trace did not start")
	}
	r.pump()

	if len(r.done) != 1 {
		t.Fatalf("completions = %d, want 1", len(r.done))
	}
	c := r.done[0]
	if c.trace != tr || c.outcome != msg.VerdictGarbage {
		t.Fatalf("completion = %+v, want trace %v Garbage", c, tr)
	}
	if len(c.participants) != 2 {
		t.Fatalf("participants = %v, want both sites", c.participants)
	}
	if !r.flaggedGarbage(1, 1) || !r.flaggedGarbage(2, 1) {
		t.Fatal("inrefs on the confirmed cycle not flagged garbage")
	}
	// All bookkeeping released.
	for s, e := range r.engines {
		if e.ActiveFrames() != 0 {
			t.Errorf("site %v: %d frames left", s, e.ActiveFrames())
		}
		if e.PendingMarks() != 0 {
			t.Errorf("site %v: %d trace marks left", s, e.PendingMarks())
		}
	}
}

func TestTwoSiteCycleMessageComplexity(t *testing.T) {
	// A 2-site ring traverses E=2 inter-site references and has P=2
	// participants: 2E call+reply messages plus P-1 report messages
	// (the initiator reports to itself without a message).
	r := newRig(t, 1, 2)
	r.buildRing(2, 40)
	if _, ok := r.engines[1].StartTrace(ids.MakeRef(2, 1)); !ok {
		t.Fatal("no trace")
	}
	r.pump()

	calls := r.metric("msg.BackCall")
	replies := r.metric("msg.BackReply")
	reports := r.metric("msg.Report")
	if calls != 2 || replies != 2 || reports != 1 {
		t.Fatalf("messages: calls=%d replies=%d reports=%d, want 2/2/1", calls, replies, reports)
	}
}

func TestRingCyclesOfManySizes(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 16} {
		sites := make([]ids.SiteID, n)
		for i := range sites {
			sites[i] = ids.SiteID(i + 1)
		}
		r := newRig(t, sites...)
		r.buildRing(n, 40)
		if _, ok := r.engines[1].StartTrace(ids.MakeRef(2, 1)); !ok {
			t.Fatalf("n=%d: no trace", n)
		}
		r.pump()
		if len(r.done) != 1 || r.done[0].outcome != msg.VerdictGarbage {
			t.Fatalf("n=%d: completions %+v", n, r.done)
		}
		if got := len(r.done[0].participants); got != n {
			t.Fatalf("n=%d: participants = %d, want %d", n, got, n)
		}
		for i := 1; i <= n; i++ {
			if !r.flaggedGarbage(ids.SiteID(i), 1) {
				t.Fatalf("n=%d: site %d inref not flagged", n, i)
			}
		}
		// Ring of n sites: E = n inter-site references, P = n sites.
		if calls := r.metric("msg.BackCall"); calls != int64(n) {
			t.Fatalf("n=%d: calls = %d, want %d", n, calls, n)
		}
		if reports := r.metric("msg.Report"); reports != int64(n-1) {
			t.Fatalf("n=%d: reports = %d, want %d", n, reports, n-1)
		}
	}
}

func TestLiveSuspectReturnsLive(t *testing.T) {
	// Site 2's inref is clean (distance 1): the back trace must return
	// Live and flag nothing.
	r := newRig(t, 1, 2)
	r.addSuspectInref(1, 1, 40, 2)
	r.addOutref(1, ids.MakeRef(2, 1), 41, 1)
	r.addSuspectInref(2, 1, 1, 1) // clean: distance 1 <= threshold 4
	r.addOutref(2, ids.MakeRef(1, 1), 40, 1)

	if _, ok := r.engines[1].StartTrace(ids.MakeRef(2, 1)); !ok {
		t.Fatal("no trace")
	}
	r.pump()
	if len(r.done) != 1 || r.done[0].outcome != msg.VerdictLive {
		t.Fatalf("completions = %+v, want one Live", r.done)
	}
	if r.flaggedGarbage(1, 1) || r.flaggedGarbage(2, 1) {
		t.Fatal("live trace flagged an inref as garbage")
	}
	if r.engines[1].PendingMarks() != 0 || r.engines[2].PendingMarks() != 0 {
		t.Fatal("visit marks not cleared after Live outcome")
	}
}

// TestFigure3Branching reproduces the paper's Figure 3: a back trace forks
// branches, one of which reaches clean iorefs (a long path from a root)
// while the other goes around the cycle; the trace must return Live.
func TestFigure3Branching(t *testing.T) {
	// Site 3 (R) holds inref c sourced from P(1) and Q(2).
	// P's outref for c has an inset leading to a CLEAN inref (the root
	// path); Q's outref for c leads around the suspected cycle.
	r := newRig(t, 1, 2, 3)
	// R: inref c = object 1, sources P and Q; initiating outref d -> own?
	// Start the trace from Q's outref to R to keep the shape simple.
	r.addSuspectInref(3, 1, 40, 1, 2)
	// P: outref for R:1 with inset {object 7}; inref 7 is CLEAN.
	r.addOutref(1, ids.MakeRef(3, 1), 41, 7)
	r.addSuspectInref(1, 7, 1, 3) // distance 1: clean
	// Q: outref for R:1 with inset {object 9}; inref 9 suspected, sourced
	// from R, whose outref is Q-side... close the cycle via R.
	r.addOutref(2, ids.MakeRef(3, 1), 41, 9)
	r.addSuspectInref(2, 9, 40, 3)
	r.addOutref(3, ids.MakeRef(2, 9), 41, 1)

	// Initiate at R from its outref to Q.
	if _, ok := r.engines[3].StartTrace(ids.MakeRef(2, 9)); !ok {
		t.Fatal("no trace")
	}
	r.pump()
	if len(r.done) != 1 || r.done[0].outcome != msg.VerdictLive {
		t.Fatalf("completions = %+v, want Live (root path wins)", r.done)
	}
	if r.flaggedGarbage(3, 1) || r.flaggedGarbage(2, 9) {
		t.Fatal("Live trace flagged inrefs")
	}
}

func TestStartTraceOnCleanOrMissingOutref(t *testing.T) {
	r := newRig(t, 1)
	if _, ok := r.engines[1].StartTrace(ids.MakeRef(2, 1)); ok {
		t.Fatal("trace started from missing outref")
	}
	r.addOutref(1, ids.MakeRef(2, 1), 2) // clean: distance 2 <= 4
	if _, ok := r.engines[1].StartTrace(ids.MakeRef(2, 1)); ok {
		t.Fatal("trace started from clean outref")
	}
}

func TestMissingInsetMeansGarbage(t *testing.T) {
	// A suspected outref with an empty inset: nothing locally reaches it,
	// so the call returns Garbage (the object holding it died).
	r := newRig(t, 1, 2)
	r.addSuspectInref(1, 1, 40, 2)
	r.addOutref(1, ids.MakeRef(2, 1), 41, 1)
	r.addSuspectInref(2, 1, 40, 1)
	r.addOutref(2, ids.MakeRef(1, 1), 40) // empty inset

	if _, ok := r.engines[1].StartTrace(ids.MakeRef(2, 1)); !ok {
		t.Fatal("no trace")
	}
	r.pump()
	if len(r.done) != 1 || r.done[0].outcome != msg.VerdictGarbage {
		t.Fatalf("completions = %+v, want Garbage", r.done)
	}
}

func TestDeletedOutrefDuringTraceReturnsGarbage(t *testing.T) {
	// The callee site has no outref for the reference (trimmed by its
	// collector): "its ioref must have been deleted by the garbage
	// collector; so the call returns Garbage".
	r := newRig(t, 1, 2)
	r.addSuspectInref(1, 1, 40, 2)
	r.addOutref(1, ids.MakeRef(2, 1), 41, 1)
	r.addSuspectInref(2, 1, 40, 1)
	// Site 2 has no outref back to site 1 at all; site 1's inref source
	// list still names site 2 (update message not yet processed).

	if _, ok := r.engines[1].StartTrace(ids.MakeRef(2, 1)); !ok {
		t.Fatal("no trace")
	}
	r.pump()
	if len(r.done) != 1 || r.done[0].outcome != msg.VerdictGarbage {
		t.Fatalf("completions = %+v, want Garbage", r.done)
	}
}

func TestBackThresholdRaisedOnVisit(t *testing.T) {
	r := newRig(t, 1, 2)
	r.buildRing(2, 40)
	o, _ := r.tables[1].Outref(ids.MakeRef(2, 1))
	in, _ := r.tables[1].Inref(1)
	beforeO, beforeIn := o.BackThreshold, in.BackThreshold

	r.engines[1].StartTrace(ids.MakeRef(2, 1))
	r.pump()

	if o.BackThreshold != beforeO+rigBump {
		t.Errorf("outref back threshold = %d, want %d", o.BackThreshold, beforeO+rigBump)
	}
	if in.BackThreshold != beforeIn+rigBump {
		t.Errorf("inref back threshold = %d, want %d", in.BackThreshold, beforeIn+rigBump)
	}
}

func TestShouldStartRespectsBackThreshold(t *testing.T) {
	r := newRig(t, 1, 2)
	// Distance 12 exceeds T2=10: should start.
	r.addSuspectInref(1, 1, 12, 2)
	r.addOutref(1, ids.MakeRef(2, 1), 12, 1)
	if !r.engines[1].ShouldStart(ids.MakeRef(2, 1)) {
		t.Fatal("ShouldStart = false for distance beyond T2")
	}
	// Distance 8 is suspected (> 4) but below T2: not yet.
	r.addOutref(1, ids.MakeRef(2, 2), 8)
	if r.engines[1].ShouldStart(ids.MakeRef(2, 2)) {
		t.Fatal("ShouldStart = true below the back threshold")
	}
	// Clean outref: never.
	r.addOutref(1, ids.MakeRef(2, 3), 2)
	if r.engines[1].ShouldStart(ids.MakeRef(2, 3)) {
		t.Fatal("ShouldStart = true for clean outref")
	}
	// Missing: never.
	if r.engines[1].ShouldStart(ids.MakeRef(9, 9)) {
		t.Fatal("ShouldStart = true for missing outref")
	}
}

func TestLiveSuspectStopsGeneratingTraces(t *testing.T) {
	// Section 4.3: "live suspects will stop generating back traces once
	// their back thresholds are above their distances."
	r := newRig(t, 1, 2)
	r.addSuspectInref(1, 1, 12, 2)
	r.addOutref(1, ids.MakeRef(2, 1), 13, 1)
	r.addSuspectInref(2, 1, 1, 1) // clean at site 2 -> Live outcome
	r.addOutref(2, ids.MakeRef(1, 1), 12, 1)

	starts := 0
	for i := 0; i < 5; i++ {
		if r.engines[1].ShouldStart(ids.MakeRef(2, 1)) {
			starts++
			r.engines[1].StartTrace(ids.MakeRef(2, 1))
			r.pump()
		}
	}
	if starts != 1 {
		t.Fatalf("live suspect generated %d traces, want exactly 1 (threshold rose)", starts)
	}
}

func TestCleanRuleForcesLive(t *testing.T) {
	// Pause delivery after site 1 sends its remote call, clean the inref
	// the trace is active on (as the transfer barrier would), then let
	// the Garbage reply arrive: the trace must still complete Live.
	r := newRig(t, 1, 2)
	r.buildRing(2, 40)

	r.engines[1].StartTrace(ids.MakeRef(2, 1))
	// Queue now holds the BackCall to site 2. The trace is active on
	// site 1's inref 1 (frame waiting for site 2's reply).
	in, _ := r.tables[1].Inref(1)
	in.Barrier = true
	r.engines[1].NotifyCleanedInref(1)

	if len(r.done) != 1 || r.done[0].outcome != msg.VerdictLive {
		t.Fatalf("completions = %+v, want immediate Live via clean rule", r.done)
	}
	r.pump() // late Garbage reply must be ignored harmlessly
	if len(r.done) != 1 {
		t.Fatalf("late reply produced extra completion: %+v", r.done)
	}
	if r.flaggedGarbage(1, 1) {
		t.Fatal("clean-rule Live trace flagged the inref")
	}
}

func TestCleanRuleOnOutref(t *testing.T) {
	r := newRig(t, 1, 2)
	r.buildRing(2, 40)
	// Make site 2 never answer, so site 1's frames stay active.
	r.engines[1].StartTrace(ids.MakeRef(2, 1))
	r.dropWhere(func(e msg.Envelope) bool { return e.To == 2 })

	o, _ := r.tables[1].Outref(ids.MakeRef(2, 1))
	o.Barrier = true
	r.engines[1].NotifyCleanedOutref(ids.MakeRef(2, 1))
	if len(r.done) != 1 || r.done[0].outcome != msg.VerdictLive {
		t.Fatalf("completions = %+v, want Live via outref clean rule", r.done)
	}
}

func TestCallTimeoutAssumesLive(t *testing.T) {
	r := newRig(t, 1, 2)
	r.buildRing(2, 40)
	r.engines[1].StartTrace(ids.MakeRef(2, 1))
	// Lose the call to site 2 entirely.
	r.dropWhere(func(e msg.Envelope) bool { return e.To == 2 })
	r.pump()
	if len(r.done) != 0 {
		t.Fatal("trace completed without reply or timeout")
	}

	r.now = r.now.Add(2 * time.Minute) // beyond CallTimeout
	r.engines[1].CheckTimeouts()
	r.pump()
	if len(r.done) != 1 || r.done[0].outcome != msg.VerdictLive {
		t.Fatalf("completions = %+v, want Live after call timeout", r.done)
	}
	if r.engines[1].ActiveFrames() != 0 {
		t.Fatal("frames leaked after timeout")
	}
}

func TestReportLossHandledByTimeout(t *testing.T) {
	r := newRig(t, 1, 2)
	r.buildRing(2, 40)
	r.engines[1].StartTrace(ids.MakeRef(2, 1))

	// Deliver everything except Report messages.
	for {
		idx := -1
		for i, env := range r.queue {
			if _, isReport := env.M.(msg.Report); !isReport {
				idx = i
				break
			}
		}
		if idx < 0 {
			break
		}
		env := r.queue[idx]
		r.queue = append(r.queue[:idx], r.queue[idx+1:]...)
		r.deliver(env)
	}
	dropped := r.dropWhere(func(e msg.Envelope) bool {
		_, isReport := e.M.(msg.Report)
		return isReport
	})
	if dropped == 0 {
		t.Fatal("expected a Report message to drop")
	}
	if r.engines[2].PendingMarks() == 0 {
		t.Fatal("site 2 should still hold visit marks (report lost)")
	}

	// Site 2 times out waiting for the outcome and assumes Live: marks
	// cleared, inref NOT flagged (conservative), so a future trace can
	// still confirm the garbage.
	r.now = r.now.Add(10 * time.Minute)
	r.engines[2].CheckTimeouts()
	if r.engines[2].PendingMarks() != 0 {
		t.Fatal("marks not cleared by report timeout")
	}
	if r.flaggedGarbage(2, 1) {
		t.Fatal("report timeout must assume Live, not Garbage")
	}
	// The initiator completed Garbage and flagged its own inref.
	if !r.flaggedGarbage(1, 1) {
		t.Fatal("initiator should have flagged its inref")
	}
}

func TestConcurrentBackTracesOnSameCycle(t *testing.T) {
	// Two traces started at both sites of the same cycle (Section 4.7):
	// both must terminate; at least one confirms Garbage; all marks are
	// released; flagging is idempotent.
	r := newRig(t, 1, 2)
	r.buildRing(2, 40)

	r.engines[1].StartTrace(ids.MakeRef(2, 1))
	r.engines[2].StartTrace(ids.MakeRef(1, 1))
	r.pump()

	if len(r.done) != 2 {
		t.Fatalf("completions = %d, want 2", len(r.done))
	}
	garbage := 0
	for _, c := range r.done {
		if c.outcome == msg.VerdictGarbage {
			garbage++
		}
	}
	if garbage == 0 {
		t.Fatal("neither concurrent trace confirmed the garbage cycle")
	}
	if !r.flaggedGarbage(1, 1) || !r.flaggedGarbage(2, 1) {
		t.Fatal("cycle not fully flagged after concurrent traces")
	}
	for s, e := range r.engines {
		if e.ActiveFrames() != 0 || e.PendingMarks() != 0 {
			t.Errorf("site %v: leaked frames/marks", s)
		}
	}
}

func TestConcurrentTracesInterleaved(t *testing.T) {
	// Strictly alternate message delivery between two concurrent traces
	// to exercise interleaving rather than back-to-back execution.
	r := newRig(t, 1, 2, 3)
	r.buildRing(3, 40)

	r.engines[1].StartTrace(ids.MakeRef(2, 1))
	r.engines[2].StartTrace(ids.MakeRef(3, 1))

	for len(r.queue) > 0 {
		// Deliver the LAST queued message first to scramble ordering.
		env := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		r.deliver(env)
	}

	if len(r.done) != 2 {
		t.Fatalf("completions = %d, want 2", len(r.done))
	}
	if !r.flaggedGarbage(1, 1) || !r.flaggedGarbage(2, 1) || !r.flaggedGarbage(3, 1) {
		t.Fatal("3-site cycle not fully flagged")
	}
}

func TestSecondTraceAfterFlaggingIsHarmless(t *testing.T) {
	// A trace that runs after the cycle was flagged (but before local
	// traces deleted it) must not crash or unflag anything.
	r := newRig(t, 1, 2)
	r.buildRing(2, 40)
	r.engines[1].StartTrace(ids.MakeRef(2, 1))
	r.pump()
	if !r.flaggedGarbage(1, 1) {
		t.Fatal("setup: cycle not flagged")
	}
	r.engines[2].StartTrace(ids.MakeRef(1, 1))
	r.pump()
	if !r.flaggedGarbage(1, 1) || !r.flaggedGarbage(2, 1) {
		t.Fatal("flags lost after second trace")
	}
}

func TestRevisitWithinOneTraceReturnsGarbage(t *testing.T) {
	// A diamond: initiator's outref inset has two inrefs whose source
	// outrefs converge on one upstream inref. The second branch to reach
	// the shared inref must get Garbage (already visited) while the
	// whole trace still terminates correctly.
	r := newRig(t, 1, 2)
	// Site 1: inrefs 11 and 12, both sourced from site 2.
	r.addSuspectInref(1, 11, 40, 2)
	r.addSuspectInref(1, 12, 40, 2)
	// Site 2: outrefs to both, each with inset {21}; inref 21 sourced
	// from site 1, whose outref closes the cycle with inset {11, 12}.
	r.addOutref(2, ids.MakeRef(1, 11), 41, 21)
	r.addOutref(2, ids.MakeRef(1, 12), 41, 21)
	r.addSuspectInref(2, 21, 40, 1)
	r.addOutref(1, ids.MakeRef(2, 21), 41, 11, 12)

	if _, ok := r.engines[1].StartTrace(ids.MakeRef(2, 21)); !ok {
		t.Fatal("no trace")
	}
	r.pump()
	if len(r.done) != 1 || r.done[0].outcome != msg.VerdictGarbage {
		t.Fatalf("completions = %+v, want Garbage", r.done)
	}
	for _, obj := range []ids.ObjID{11, 12} {
		if !r.flaggedGarbage(1, obj) {
			t.Errorf("inref %v not flagged", obj)
		}
	}
	if !r.flaggedGarbage(2, 21) {
		t.Error("inref 21 not flagged")
	}
}

// TestIorefDeletedWhileAnotherTraceActive is the case Boyapati pointed out
// (paper acknowledgements, fixed in Section 4.7): one trace confirms
// garbage and the collector deletes iorefs while a second trace still has
// an activation frame on them. The frame's explicit return information
// must let the second trace complete cleanly.
func TestIorefDeletedWhileAnotherTraceActive(t *testing.T) {
	r := newRig(t, 1, 2)
	r.buildRing(2, 40)

	// Trace A confirms the cycle.
	r.engines[1].StartTrace(ids.MakeRef(2, 1))
	r.pump()
	if len(r.done) != 1 || r.done[0].outcome != msg.VerdictGarbage {
		t.Fatalf("setup: %+v", r.done)
	}

	// Trace B starts from site 2 and becomes active on site 2's iorefs,
	// waiting on a call to site 1.
	r.engines[2].StartTrace(ids.MakeRef(1, 1))
	if r.engines[2].ActiveFrames() == 0 {
		t.Fatal("trace B not active")
	}

	// Site 2's local trace now deletes the flagged cycle state while B's
	// frames are active on it (the deletion trace A's outcome caused).
	r.tables[2].RemoveInref(1)
	r.tables[2].RemoveOutref(ids.MakeRef(1, 1))

	// Deliver B's outstanding messages: replies route by frame id, not by
	// ioref, so B completes without touching the deleted entries.
	r.pump()
	if len(r.done) != 2 {
		t.Fatalf("trace B did not complete: %+v", r.done)
	}
	for s, e := range r.engines {
		if e.ActiveFrames() != 0 {
			t.Errorf("site %v: frames leaked", s)
		}
		if e.PendingMarks() != 0 {
			t.Errorf("site %v: marks leaked", s)
		}
	}
}

func TestLateReplyToFinishedFrameIgnored(t *testing.T) {
	r := newRig(t, 1)
	// A reply for a frame that never existed must be a no-op.
	r.engines[1].HandleBackReply(2, msg.BackReply{
		Trace:   ids.TraceID{Initiator: 2, Seq: 9},
		Results: []msg.BackResult{{Caller: 999, Result: msg.VerdictLive}},
	})
	if len(r.done) != 0 || r.engines[1].ActiveFrames() != 0 {
		t.Fatal("stray reply had an effect")
	}
}

func TestReportForUnknownTraceIgnored(t *testing.T) {
	r := newRig(t, 1)
	r.engines[1].HandleReport(2, msg.Report{
		Trace:   ids.TraceID{Initiator: 2, Seq: 9},
		Outcome: msg.VerdictGarbage,
	})
	if r.engines[1].PendingMarks() != 0 {
		t.Fatal("stray report had an effect")
	}
}

func TestGarbageOutcomeCounters(t *testing.T) {
	r := newRig(t, 1, 2)
	r.buildRing(2, 40)
	r.engines[1].StartTrace(ids.MakeRef(2, 1))
	r.pump()
	if r.metric(metrics.BackTracesStarted) != 1 {
		t.Error("started counter wrong")
	}
	if r.metric(metrics.BackTracesGarbage) != 1 {
		t.Error("garbage outcome counter wrong")
	}
	if r.metric(metrics.InrefsFlagged) != 2 {
		t.Errorf("flagged counter = %d, want 2", r.metric(metrics.InrefsFlagged))
	}
}
