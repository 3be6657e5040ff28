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
	calls := r.metric("msg.BackCall")
	replies := r.metric("msg.BackReply")
	reports := r.metric("msg.Report")
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
	if _, ok := r.engines[1].StartTrace(suspects...); !ok {
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

// TestGroupedHeldStepsAndRepliesMerge: while a hold is open, site 2 handles
// two BackCalls of one trace from site 1. Their onward steps to site 3
// join one BackCall across the two entry points, and once site 3 answers,
// the two replies site 2 owes site 1 for that trace merge into one
// BackReply with the results in the order they completed, while a reply
// for another trace stays separate. Without a hold the same calls cost one
// message each, as before.
func TestGroupedHeldStepsAndRepliesMerge(t *testing.T) {
	r := newRig(t, 2, 3)
	// Site 2: suspected outrefs (1,5) {inset 20} and (1,6) {inset 21};
	// inrefs 20 and 21 are sourced from site 3, which knows neither, so
	// each step there answers Garbage. (1,7) is clean and answers Live.
	r.addOutref(2, ids.MakeRef(1, 5), 41, 20)
	r.addOutref(2, ids.MakeRef(1, 6), 41, 21)
	r.addOutref(2, ids.MakeRef(1, 7), 1)
	r.addSuspectInref(2, 20, 40, 3)
	r.addSuspectInref(2, 21, 40, 3)
	tr := ids.TraceID{Initiator: 1, Seq: 7}
	other := ids.TraceID{Initiator: 1, Seq: 8}
	call := func(t ids.TraceID, seq uint64, obj ids.ObjID) msg.BackCall {
		return msg.BackCall{Trace: t, Steps: []msg.BackStep{{Caller: seq, Outref: obj}}}
	}

	e := r.engines[2]
	e.Hold()
	e.HandleBackCall(1, call(tr, 10, 5))
	e.HandleBackCall(1, call(tr, 11, 6))
	e.HandleBackCall(1, call(other, 12, 7)) // answered Live at once: its reply waits too
	if len(r.queue) != 0 {
		t.Fatalf("a hold shipped %d messages", len(r.queue))
	}
	e.FlushTo(3)
	onward := popMessage[msg.BackCall](r, 2, 3)
	if len(onward.Steps) != 2 || len(r.queue) != 0 {
		t.Fatalf("FlushTo(3) sent a %d-step call plus %d messages, want one 2-step call", len(onward.Steps), len(r.queue))
	}
	r.deliver(msg.Envelope{From: 2, To: 3, M: onward})
	// Site 3 answers both steps in one reply; handling it completes both of
	// site 2's replies to site 1 for tr in one entry point.
	r.deliver(msg.Envelope{From: 3, To: 2, M: popMessage[msg.BackReply](r, 3, 2)})
	if len(r.queue) != 0 {
		t.Fatalf("a hold shipped %d messages", len(r.queue))
	}
	e.Release()

	live := popMessage[msg.BackReply](r, 2, 1)
	if live.Trace != other || len(live.Results) != 1 || live.Results[0].Result != msg.VerdictLive {
		t.Fatalf("first reply %+v, want trace %v's one Live result", live, other)
	}
	merged := popMessage[msg.BackReply](r, 2, 1)
	if merged.Trace != tr || len(merged.Results) != 2 || len(r.queue) != 0 {
		t.Fatalf("second reply %+v (+%d queued), want one reply for %v with 2 results", merged, len(r.queue), tr)
	}
	for i, res := range merged.Results {
		if res.Caller != uint64(10+i) || res.Result != msg.VerdictGarbage {
			t.Fatalf("merged result %d = %+v, want Garbage for caller seq %d", i, res, 10+i)
		}
		if len(res.Participants) != 2 {
			t.Fatalf("merged result %d participants %v, want sites 2 and 3", i, res.Participants)
		}
	}

	// No hold: two calls, two onward calls, two replies.
	fresh := ids.TraceID{Initiator: 1, Seq: 9}
	e.HandleBackCall(1, call(fresh, 20, 5))
	e.HandleBackCall(1, call(fresh, 21, 6))
	first := popMessage[msg.BackCall](r, 2, 3)
	second := popMessage[msg.BackCall](r, 2, 3)
	if len(first.Steps) != 1 || len(second.Steps) != 1 {
		t.Fatalf("unheld calls sent %d- and %d-step calls, want 1 and 1", len(first.Steps), len(second.Steps))
	}
	r.deliver(msg.Envelope{From: 2, To: 3, M: first})
	r.deliver(msg.Envelope{From: 2, To: 3, M: second})
	r.pump()
	if got := r.metric("msg.BackReply"); got != 1+2+2+2 {
		t.Fatalf("msg.BackReply = %d, want 7 (1 from site 3 and 2 from site 2 held, then 2 + 2 unheld)", got)
	}
}

// TestGroupedFlushToClosesJoin: FlushTo ships a held BackCall, so a step
// for the same (destination, trace) sent after it travels in a new call
// and can never overtake what the site sent in between.
func TestGroupedFlushToClosesJoin(t *testing.T) {
	r := newRig(t, 2)
	r.addOutref(2, ids.MakeRef(1, 5), 41, 20)
	r.addOutref(2, ids.MakeRef(1, 6), 41, 21)
	r.addSuspectInref(2, 20, 40, 3)
	r.addSuspectInref(2, 21, 40, 3)
	tr := ids.TraceID{Initiator: 1, Seq: 7}
	e := r.engines[2]
	e.Hold()
	e.HandleBackCall(1, msg.BackCall{Trace: tr, Steps: []msg.BackStep{{Caller: 1, Outref: 5}}})
	e.FlushTo(3)
	e.HandleBackCall(1, msg.BackCall{Trace: tr, Steps: []msg.BackStep{{Caller: 2, Outref: 6}}})
	e.FlushTo(3)
	e.FlushTo(3) // nothing left: a second flush ships nothing twice
	e.Release()
	a := popMessage[msg.BackCall](r, 2, 3)
	b := popMessage[msg.BackCall](r, 2, 3)
	if len(a.Steps) != 1 || len(b.Steps) != 1 || len(r.queue) != 0 {
		t.Fatalf("calls carry %d and %d steps (+%d queued), want 1 and 1", len(a.Steps), len(b.Steps), len(r.queue))
	}
	if a.Steps[0].Outref != 20 || b.Steps[0].Outref != 21 {
		t.Fatalf("steps out of order: %v then %v", a.Steps[0].Outref, b.Steps[0].Outref)
	}
}
