package core

import (
	"testing"

	"backtrace/internal/ids"
	"backtrace/internal/msg"
)

// popMessage removes and returns the first queued message, failing the test
// unless it has the wanted route and type.
func popMessage[M msg.Message](r *rig, from, to ids.SiteID) M {
	r.t.Helper()
	if len(r.queue) == 0 {
		r.t.Fatalf("queue empty, want a message %v→%v", from, to)
	}
	env := r.queue[0]
	r.queue = r.queue[1:]
	m, ok := env.M.(M)
	if !ok || env.From != from || env.To != to {
		r.t.Fatalf("queued %s %v→%v, want %T %v→%v", msg.Name(env.M), env.From, env.To, m, from, to)
	}
	return m
}

// TestGroupedStepsOneCallPerSourceSite: a frame whose inset holds k inrefs
// that all share one source site sends that site one BackCall of k steps,
// not k calls, and gets one BackReply back. The cycle crosses E = k+1
// inter-site references but only W = 2 (call, destination) pairs, so the
// trace costs 2W+P−1 = 5 messages instead of 2E+P−1.
func TestGroupedStepsOneCallPerSourceSite(t *testing.T) {
	const k = 4
	r := newRig(t, 1, 2)
	// Site 1: suspect out(2,100) {inset 1..k}; inrefs 1..k sourced from 2.
	// Site 2: out(1,i) {inset 100} for each i; inref 100 sourced from 1.
	inset := make([]ids.ObjID, k)
	for i := range inset {
		obj := ids.ObjID(i + 1)
		inset[i] = obj
		r.addSuspectInref(1, obj, 40, 2)
		r.addOutref(2, ids.MakeRef(1, obj), 41, 100)
	}
	r.addOutref(1, ids.MakeRef(2, 100), 41, inset...)
	r.addSuspectInref(2, 100, 40, 1)

	if _, ok := r.engines[1].StartTrace(ids.MakeRef(2, 100)); !ok {
		t.Fatal("no trace")
	}
	if len(r.queue) != 1 {
		t.Fatalf("trace start queued %d messages, want one BackCall", len(r.queue))
	}
	if c := r.queue[0].M.(msg.BackCall); len(c.Steps) != k {
		t.Fatalf("BackCall carries %d steps, want %d", len(c.Steps), k)
	}
	r.pump()

	if len(r.done) != 1 || r.done[0].outcome != msg.VerdictGarbage {
		t.Fatalf("completions = %+v, want one Garbage", r.done)
	}
	calls := r.counters.Get("msg.BackCall")
	replies := r.counters.Get("msg.BackReply")
	reports := r.counters.Get("msg.Report")
	if calls != 2 || replies != 2 || reports != 1 {
		t.Fatalf("messages: calls=%d replies=%d reports=%d, want 2/2/1 (W=2, P=2)", calls, replies, reports)
	}
	for _, obj := range inset {
		if !r.flaggedGarbage(1, obj) {
			t.Errorf("site 1 inref %v not flagged", obj)
		}
	}
	if !r.flaggedGarbage(2, 100) {
		t.Error("site 2 inref 100 not flagged")
	}
	for s, e := range r.engines {
		if e.ActiveFrames() != 0 || e.PendingMarks() != 0 {
			t.Errorf("site %v: frames=%d marks=%d left", s, e.ActiveFrames(), e.PendingMarks())
		}
	}
}

// TestGroupedLiveStepShortCircuitsOnlyItsFrame: one BackCall carries the
// steps of three batch suspects; the middle step reaches a clean outref.
// Its Live verdict resolves only its own caller frame: the other two steps
// still explore, return Garbage in the same BackReply, and their suspects
// are confirmed garbage.
func TestGroupedLiveStepShortCircuitsOnlyItsFrame(t *testing.T) {
	r := newRig(t, 1, 2)
	// Suspect i (i = 0, 1, 2) is out(2,11+i)@1 {inset 1+i}; inref 1+i@1 is
	// sourced from site 2, so all three steps go to site 2 in one call.
	for i := ids.ObjID(0); i < 3; i++ {
		r.addSuspectInref(1, 1+i, 40, 2)
		r.addOutref(1, ids.MakeRef(2, 11+i), 41, 1+i)
	}
	// Site 2 closes garbage cycles for suspects 0 and 2; suspect 1's step
	// lands on a clean outref.
	r.addOutref(2, ids.MakeRef(1, 1), 41, 11)
	r.addOutref(2, ids.MakeRef(1, 2), 1)
	r.addOutref(2, ids.MakeRef(1, 3), 41, 13)
	r.addSuspectInref(2, 11, 40, 1)
	r.addSuspectInref(2, 13, 40, 1)

	suspects := []ids.Ref{ids.MakeRef(2, 11), ids.MakeRef(2, 12), ids.MakeRef(2, 13)}
	if _, ok := r.engines[1].StartBatchTrace(suspects); !ok {
		t.Fatal("batch trace did not start")
	}
	call := popMessage[msg.BackCall](r, 1, 2)
	if len(call.Steps) != 3 {
		t.Fatalf("BackCall carries %d steps, want 3", len(call.Steps))
	}
	for i, st := range call.Steps {
		if st.Suspect != uint32(i) {
			t.Fatalf("step %d carries suspect %d", i, st.Suspect)
		}
	}
	r.deliver(msg.Envelope{From: 1, To: 2, M: call})
	// Site 2 answered the Live step at once but holds the reply until the
	// other two steps return: its only message is the onward call.
	onward := popMessage[msg.BackCall](r, 2, 1)
	if len(onward.Steps) != 2 || len(r.queue) != 0 {
		t.Fatalf("site 2 sent a %d-step call plus %d messages, want one 2-step call", len(onward.Steps), len(r.queue))
	}
	r.deliver(msg.Envelope{From: 2, To: 1, M: onward})
	r.deliver(msg.Envelope{From: 1, To: 2, M: popMessage[msg.BackReply](r, 1, 2)})

	reply := popMessage[msg.BackReply](r, 2, 1)
	want := []msg.Verdict{msg.VerdictGarbage, msg.VerdictLive, msg.VerdictGarbage}
	if len(reply.Results) != len(want) {
		t.Fatalf("BackReply carries %d results, want %d", len(reply.Results), len(want))
	}
	for i, res := range reply.Results {
		if res.Caller != call.Steps[i].Caller || res.Result != want[i] {
			t.Fatalf("result %d = %+v, want %v for caller %v", i, res, want[i], call.Steps[i].Caller)
		}
	}
	r.deliver(msg.Envelope{From: 2, To: 1, M: reply})
	r.pump()

	if len(r.done) != 1 || r.done[0].outcome != msg.VerdictGarbage {
		t.Fatalf("completions = %+v, want one Garbage", r.done)
	}
	for _, obj := range []ids.ObjID{1, 3} {
		if !r.flaggedGarbage(1, obj) {
			t.Errorf("garbage suspect's inref %v@1 not flagged", obj)
		}
	}
	if r.flaggedGarbage(1, 2) {
		t.Error("live suspect's inref 2@1 flagged")
	}
	for _, obj := range []ids.ObjID{11, 13} {
		if !r.flaggedGarbage(2, obj) {
			t.Errorf("garbage suspect's inref %v@2 not flagged", obj)
		}
	}
	for s, e := range r.engines {
		if e.ActiveFrames() != 0 || e.PendingMarks() != 0 {
			t.Errorf("site %v: frames=%d marks=%d left", s, e.ActiveFrames(), e.PendingMarks())
		}
	}
}
