package core

import (
	"slices"
	"testing"

	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/msg"
)

// TestBatchTraceMixedVerdicts: one batched trace carries a garbage suspect
// and a live suspect. The garbage suspect's cycle must be flagged, the live
// suspect's cone must stay unflagged, and the single report phase must
// resolve both (the Report lists the garbage suspect, restricting flagging).
func TestBatchTraceMixedVerdicts(t *testing.T) {
	r := newRig(t, 1, 2, 3)
	// Garbage 2-cycle through suspect A = (2,1)@1:
	//   out(2,1)@1 {inset 1} → in1@1 ←2 → out(1,1)@2 {inset 1} → in1@2 ←1 → revisit A.
	r.addSuspectInref(1, 1, 40, 2)
	r.addOutref(1, ids.MakeRef(2, 1), 41, 1)
	r.addSuspectInref(2, 1, 40, 1)
	r.addOutref(2, ids.MakeRef(1, 1), 41, 1)
	// Live cone through suspect B = (3,1)@1:
	//   out(3,1)@1 {inset 2} → in2@1 ←3 → out(1,2)@3 {inset 9} → in9@3 clean → Live.
	r.addSuspectInref(1, 2, 40, 3)
	r.addOutref(1, ids.MakeRef(3, 1), 41, 2)
	r.addSuspectInref(3, 9, 1, 1) // clean: distance 1 <= threshold
	r.addOutref(3, ids.MakeRef(1, 2), 40, 9)

	tr, started := r.engines[1].StartTrace(ids.MakeRef(2, 1), ids.MakeRef(3, 1))
	if !started {
		t.Fatal("batch trace did not start")
	}
	r.pump()

	if len(r.done) != 1 {
		t.Fatalf("completions = %d, want 1", len(r.done))
	}
	c := r.done[0]
	if c.trace != tr || c.outcome != msg.VerdictGarbage {
		t.Fatalf("completion = %+v, want trace %v Garbage (one suspect confirmed)", c, tr)
	}
	// Only the garbage suspect's cone is flagged.
	if !r.flaggedGarbage(1, 1) || !r.flaggedGarbage(2, 1) {
		t.Error("garbage suspect's cycle inrefs not flagged")
	}
	if r.flaggedGarbage(1, 2) || r.flaggedGarbage(3, 9) {
		t.Error("live suspect's cone was flagged garbage")
	}
	if got := r.metric(metrics.BackTracesStarted); got != 1 {
		t.Errorf("traces started = %d, want 1 for the whole batch", got)
	}
	if len(r.reports) != 2 {
		t.Fatalf("reports = %+v, want one each to sites 2 and 3", r.reports)
	}
	for _, rep := range r.reports {
		if rep.Outcome != msg.VerdictGarbage || !slices.Equal(rep.GarbageSuspects, []uint32{0}) {
			t.Errorf("report = %+v, want Garbage listing suspect 0 only", rep)
		}
	}
	for s, e := range r.engines {
		if e.ActiveFrames() != 0 || e.PendingMarks() != 0 {
			t.Errorf("site %v: frames=%d marks=%d left", s, e.ActiveFrames(), e.PendingMarks())
		}
	}
}

// TestBatchTraceAllGarbageReportsNoSuspects: when every suspect of a batched
// trace is confirmed garbage, the Report lists none, exactly like a
// one-suspect trace's, and every participant still flags every inref the
// trace visited there.
func TestBatchTraceAllGarbageReportsNoSuspects(t *testing.T) {
	r := newRig(t, 1, 2, 3)
	// Two garbage 2-cycles from site 1: suspect A = (2,1)@1 through site 2
	// and suspect B = (3,1)@1 through site 3.
	r.addSuspectInref(1, 1, 40, 2)
	r.addOutref(1, ids.MakeRef(2, 1), 41, 1)
	r.addSuspectInref(2, 1, 40, 1)
	r.addOutref(2, ids.MakeRef(1, 1), 41, 1)
	r.addSuspectInref(1, 2, 40, 3)
	r.addOutref(1, ids.MakeRef(3, 1), 41, 2)
	r.addSuspectInref(3, 1, 40, 1)
	r.addOutref(3, ids.MakeRef(1, 2), 41, 1)

	if _, started := r.engines[1].StartTrace(ids.MakeRef(2, 1), ids.MakeRef(3, 1)); !started {
		t.Fatal("batch trace did not start")
	}
	if got := r.metric(metrics.BackTraceBatchSize); got != 2 {
		t.Fatalf("batch size = %d, want 2", got)
	}
	r.pump()

	if len(r.done) != 1 || r.done[0].outcome != msg.VerdictGarbage {
		t.Fatalf("completions = %+v, want one Garbage", r.done)
	}
	if len(r.reports) != 2 {
		t.Fatalf("reports = %+v, want one each to sites 2 and 3", r.reports)
	}
	for _, rep := range r.reports {
		if rep.Outcome != msg.VerdictGarbage || rep.GarbageSuspects != nil {
			t.Errorf("report = %+v, want Garbage with no suspect list", rep)
		}
	}
	for _, in := range []struct {
		site ids.SiteID
		obj  ids.ObjID
	}{{1, 1}, {1, 2}, {2, 1}, {3, 1}} {
		if !r.flaggedGarbage(in.site, in.obj) {
			t.Errorf("inref %v@%v not flagged", in.obj, in.site)
		}
	}
	for s, e := range r.engines {
		if e.ActiveFrames() != 0 || e.PendingMarks() != 0 {
			t.Errorf("site %v: frames=%d marks=%d left", s, e.ActiveFrames(), e.PendingMarks())
		}
	}
}

// TestBatchTraceDependentSuspectDemoted: suspect A's cone terminates at a
// visit mark owned by suspect B (a Garbage-with-dependency answer), and B
// proves Live. The initiator's fixpoint must demote A — its "garbage"
// evidence leans entirely on B's subtree — so the batch resolves Live and
// nothing is flagged.
func TestBatchTraceDependentSuspectDemoted(t *testing.T) {
	r := newRig(t, 1, 2)
	// Suspect A = (2,1)@1: in1@1 ←2 → out(1,1)@2 {inset 8} → in8@2 ←1 →
	// out(2,8)@1 {inset 2} → in2@1 — marked by suspect B at batch start,
	// so the revisit answers Garbage with a dependency on B.
	r.addSuspectInref(1, 1, 40, 2)
	r.addOutref(1, ids.MakeRef(2, 1), 41, 1)
	r.addSuspectInref(2, 8, 40, 1)
	r.addOutref(2, ids.MakeRef(1, 1), 41, 8)
	r.addOutref(1, ids.MakeRef(2, 8), 41, 2)
	// Suspect B = (2,2)@1: in2@1 ←2 → out(1,2)@2 {inset 7} → in7@2 clean → Live.
	r.addSuspectInref(1, 2, 40, 2)
	r.addOutref(1, ids.MakeRef(2, 2), 41, 2)
	r.addSuspectInref(2, 7, 1, 1)
	r.addOutref(2, ids.MakeRef(1, 2), 40, 7)

	_, started := r.engines[1].StartTrace(ids.MakeRef(2, 1), ids.MakeRef(2, 2))
	if !started {
		t.Fatal("batch trace did not start")
	}
	r.pump()

	if len(r.done) != 1 || r.done[0].outcome != msg.VerdictLive {
		t.Fatalf("completions = %+v, want one Live (dependent suspect demoted)", r.done)
	}
	for _, obj := range []ids.ObjID{1, 2} {
		if r.flaggedGarbage(1, obj) {
			t.Errorf("site 1 inref %d flagged despite Live resolution", obj)
		}
	}
	for _, obj := range []ids.ObjID{7, 8} {
		if r.flaggedGarbage(2, obj) {
			t.Errorf("site 2 inref %d flagged despite Live resolution", obj)
		}
	}
	for s, e := range r.engines {
		if e.ActiveFrames() != 0 || e.PendingMarks() != 0 {
			t.Errorf("site %v: frames=%d marks=%d left", s, e.ActiveFrames(), e.PendingMarks())
		}
	}
}

// TestBatchTraceSingleViableDegenerates: StartTrace drops missing and clean
// suspects (one suspect alone: TestStartTraceOnCleanOrMissingOutref). With
// none left no trace starts; a batch whose other suspects are missing or
// clean runs as the one-suspect trace on the viable one — no batch size
// recorded, same verdict.
func TestBatchTraceSingleViableDegenerates(t *testing.T) {
	r := newRig(t, 1, 2)
	r.buildRing(2, 40)
	r.addOutref(1, ids.MakeRef(2, 5), 2) // clean: distance 2 <= 4
	if _, ok := r.engines[1].StartTrace(ids.MakeRef(2, 5), ids.MakeRef(2, 99)); ok {
		t.Fatal("trace started from only clean and missing outrefs")
	}
	if got := r.metric(metrics.BackTracesStarted); got != 0 {
		t.Fatalf("traces started = %d, want 0", got)
	}

	_, started := r.engines[1].StartTrace(
		ids.MakeRef(2, 5),  // clean
		ids.MakeRef(2, 99), // missing
		ids.MakeRef(2, 1),  // the ring suspect
	)
	if !started {
		t.Fatal("degenerate batch did not start")
	}
	if got := r.metric(metrics.BackTraceBatchSize); got != 0 {
		t.Fatalf("degenerate batch ran as a %d-suspect batch", got)
	}
	r.pump()
	if len(r.done) != 1 || r.done[0].outcome != msg.VerdictGarbage {
		t.Fatalf("completions = %+v, want one Garbage", r.done)
	}
	if !r.flaggedGarbage(1, 1) || !r.flaggedGarbage(2, 1) {
		t.Fatal("ring not flagged by degenerate batch")
	}
}

// TestLiveConeRetracedInFull: a second trace through a cone another trace
// already proved Live explores it again, since the engine caches no Live
// verdict. What spares a live cone repeated traces is the back threshold
// each visit raises by δ (Section 4.3).
//
//	trace 1 (site 2): out(7,1)@2 {inset 1} → in1@2 ←3 → out(2,1)@3 {inset 9} → in9@3 clean → Live
//	trace 2 (site 4): out(8,1)@4 {inset 6} → in6@4 ←2 → out(4,6)@2 {inset 1} → in1@2 …
func TestLiveConeRetracedInFull(t *testing.T) {
	r := newRig(t, 2, 3, 4)
	r.addSuspectInref(2, 1, 40, 3)
	r.addOutref(2, ids.MakeRef(7, 1), 41, 1)
	r.addSuspectInref(3, 9, 1, 2)
	r.addOutref(3, ids.MakeRef(2, 1), 40, 9)
	r.addSuspectInref(4, 6, 40, 2)
	r.addOutref(4, ids.MakeRef(8, 1), 41, 6)
	r.addOutref(2, ids.MakeRef(4, 6), 41, 1)

	if _, ok := r.engines[2].StartTrace(ids.MakeRef(7, 1)); !ok {
		t.Fatal("no first trace")
	}
	r.pump()
	if len(r.done) != 1 || r.done[0].outcome != msg.VerdictLive {
		t.Fatalf("first trace = %+v, want Live", r.done)
	}
	calls := r.metric("msg.BackCall")
	if calls != 1 {
		t.Fatalf("first trace sent %d BackCalls, want 1 (site2→site3)", calls)
	}

	if _, ok := r.engines[4].StartTrace(ids.MakeRef(8, 1)); !ok {
		t.Fatal("no second trace")
	}
	r.pump()
	if len(r.done) != 2 || r.done[1].outcome != msg.VerdictLive {
		t.Fatalf("second trace = %+v, want Live", r.done)
	}
	if got := r.metric("msg.BackCall") - calls; got != 2 {
		t.Fatalf("second trace sent %d BackCalls, want 2 (site4→site2, site2→site3)", got)
	}
	in, _ := r.tables[2].Inref(1)
	if want := rigT2 + 2*rigBump; in.BackThreshold != want {
		t.Fatalf("in1@2 back threshold = %d after two visits, want %d", in.BackThreshold, want)
	}
}
