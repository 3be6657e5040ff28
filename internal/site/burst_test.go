package site

import (
	"sync"
	"testing"
	"time"

	"backtrace/internal/ids"
	"backtrace/internal/msg"
	"backtrace/internal/transport"
)

// recordingNet is a transport.Network that delivers nothing: it records
// every message a site sends, in send order.
type recordingNet struct {
	mu   sync.Mutex
	sent []msg.Envelope
}

func (n *recordingNet) Register(ids.SiteID, transport.Handler) {}
func (n *recordingNet) Close()                                 {}

func (n *recordingNet) Send(from, to ids.SiteID, m msg.Message) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.sent = append(n.sent, msg.Envelope{From: from, To: to, M: m})
}

// take returns and forgets the recorded messages.
func (n *recordingNet) take() []msg.Envelope {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := n.sent
	n.sent = nil
	return out
}

// newBurstSite builds mailbox site 2 on a recording network with k
// suspected outrefs (1, i), i = 1..k. Outref (1, i)'s inset is one
// unrooted object whose inref has sources 3 and 4, so a back step on it
// fans out to both.
func newBurstSite(t *testing.T, k int) (*Site, *recordingNet) {
	t.Helper()
	net := &recordingNet{}
	b := New(Config{ID: 2, Network: net, SuspicionThreshold: 3, BackThreshold: 7, InboxSize: 64})
	t.Cleanup(b.Close)
	for i := 1; i <= k; i++ {
		x := b.NewObject()
		out := ids.MakeRef(1, ids.ObjID(i))
		b.mu.Lock()
		for _, src := range []ids.SiteID{3, 4} {
			b.table.AddSource(x.Obj, src)
			b.table.SetSourceDistance(x.Obj, src, 20)
		}
		err := b.heap.AddField(x.Obj, out)
		b.table.EnsureOutref(out)
		b.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
	b.RunLocalTrace()
	for i := 1; i <= k; i++ {
		b.mu.Lock()
		o, ok := b.table.Outref(ids.MakeRef(1, ids.ObjID(i)))
		suspected := ok && !o.IsClean(b.cfg.SuspicionThreshold) && len(b.back.Inset(o.Target)) == 1
		b.mu.Unlock()
		if !suspected {
			t.Fatalf("setup: outref (1,%d) is not suspected with a one-inref inset", i)
		}
	}
	net.take()
	return b, net
}

// deliverBurst queues msgs on b's inbox back to back while holding the site
// lock, so the dispatcher (which needs the lock to apply anything) applies
// all of them in one burst, then waits for the inbox to drain.
func deliverBurst(t *testing.T, b *Site, from ids.SiteID, msgs ...msg.Message) {
	t.Helper()
	b.mu.Lock()
	for _, m := range msgs {
		b.Deliver(from, m)
	}
	b.mu.Unlock()
	if err := b.AwaitInboxIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// backCall is one single-step BackCall of trace tr from site 1 for the
// outref (1, obj) at site 2, returning to caller frame seq at site 1.
func backCall(tr ids.TraceID, seq uint64, obj ids.ObjID) msg.BackCall {
	return msg.BackCall{Trace: tr, Steps: []msg.BackStep{{Caller: seq, Outref: obj}}}
}

// TestBurstCoalescesBackCalls: k BackCalls for one trace queued back to
// back on a mailbox site are applied in one burst. Their 2k onward steps
// leave as one BackCall per destination site, and once both destinations
// answer (again in one burst) the k replies the site owes site 1 leave as
// one BackReply carrying every result in the order the calls arrived.
func TestBurstCoalescesBackCalls(t *testing.T) {
	const k = 8
	b, net := newBurstSite(t, k)
	tr := ids.TraceID{Initiator: 1, Seq: 1}
	calls := make([]msg.Message, k)
	for i := range calls {
		calls[i] = backCall(tr, uint64(100+i), ids.ObjID(i+1))
	}
	deliverBurst(t, b, 1, calls...)

	onward := map[ids.SiteID]msg.BackCall{}
	for _, env := range net.take() {
		c, ok := env.M.(msg.BackCall)
		if !ok {
			t.Fatalf("burst sent %s to %v, want only BackCalls", msg.Name(env.M), env.To)
		}
		if _, dup := onward[env.To]; dup {
			t.Fatalf("burst sent site %v more than one BackCall", env.To)
		}
		if len(c.Steps) != k || c.Trace != tr {
			t.Fatalf("BackCall to %v carries %d steps of %v, want %d of %v", env.To, len(c.Steps), c.Trace, k, tr)
		}
		onward[env.To] = c
	}
	if len(onward) != 2 {
		t.Fatalf("burst sent BackCalls to %d sites, want 2", len(onward))
	}

	// Both destinations find nothing: every step answers Garbage.
	var replies []msg.Message
	for _, src := range []ids.SiteID{3, 4} {
		r := msg.BackReply{Trace: tr}
		for _, st := range onward[src].Steps {
			r.Results = append(r.Results, msg.BackResult{Caller: st.Caller, Result: msg.VerdictGarbage, Participants: []ids.SiteID{src}})
		}
		replies = append(replies, r)
	}
	b.mu.Lock()
	for i, r := range replies {
		b.Deliver(ids.SiteID(3+i), r)
	}
	b.mu.Unlock()
	if err := b.AwaitInboxIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	sent := net.take()
	if len(sent) != 1 {
		t.Fatalf("reply burst sent %d messages, want one merged BackReply", len(sent))
	}
	reply, ok := sent[0].M.(msg.BackReply)
	if !ok || sent[0].To != 1 || reply.Trace != tr || len(reply.Results) != k {
		t.Fatalf("sent %s to %v with %+v, want one %d-result BackReply to site 1", msg.Name(sent[0].M), sent[0].To, sent[0].M, k)
	}
	for i, res := range reply.Results {
		if res.Caller != uint64(100+i) || res.Result != msg.VerdictGarbage {
			t.Fatalf("result %d = %+v, want Garbage for caller seq %d", i, res, 100+i)
		}
		if len(res.Participants) != 3 {
			t.Fatalf("result %d participants %v, want sites 2, 3 and 4", i, res.Participants)
		}
	}
	if n := b.ActiveFrames(); n != 0 {
		t.Fatalf("%d frames left open", n)
	}
}

// TestBurstFlushesHeldMessagesBeforeOwnSend: within one burst a handled
// BackCall leaves a step for site 3 held, a RefTransfer makes the site
// send site 3 an Insert, and a second BackCall sends site 3 another step.
// The Insert must follow the held call on the link (R1), and the second
// step must travel in a new BackCall after it rather than join the call
// queued before the Insert.
func TestBurstFlushesHeldMessagesBeforeOwnSend(t *testing.T) {
	b, net := newBurstSite(t, 2)
	tr := ids.TraceID{Initiator: 1, Seq: 1}
	transfer := msg.RefTransfer{Payload: ids.MakeRef(3, 77), Pinner: 1}
	deliverBurst(t, b, 1, backCall(tr, 100, 1), transfer, backCall(tr, 101, 2))

	var toThree []msg.Envelope
	for _, env := range net.take() {
		if env.To == 3 {
			toThree = append(toThree, env)
		}
	}
	if len(toThree) != 3 {
		t.Fatalf("site 3 got %d messages, want BackCall, Insert, BackCall", len(toThree))
	}
	first, ok1 := toThree[0].M.(msg.BackCall)
	_, ok2 := toThree[1].M.(msg.Insert)
	second, ok3 := toThree[2].M.(msg.BackCall)
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("site 3 got %s, %s, %s; want BackCall, Insert, BackCall",
			msg.Name(toThree[0].M), msg.Name(toThree[1].M), msg.Name(toThree[2].M))
	}
	if len(first.Steps) != 1 || len(second.Steps) != 1 {
		t.Fatalf("BackCalls carry %d and %d steps, want 1 and 1: a step joined a call across the Insert",
			len(first.Steps), len(second.Steps))
	}
	if first.Steps[0].Caller == second.Steps[0].Caller {
		t.Fatal("both BackCalls carry the same step")
	}
}

// TestBurstClosesBeforeIdle: once the inbox drains, no burst is open and
// the engine holds nothing; stopping the mailbox mid-traffic leaves none
// open either. Read-only entry points assert the first property.
func TestBurstClosesBeforeIdle(t *testing.T) {
	b, net := newBurstSite(t, 4)
	tr := ids.TraceID{Initiator: 1, Seq: 1}
	for i := 1; i <= 4; i++ {
		b.Deliver(1, backCall(tr, uint64(100+i), ids.ObjID(i)))
	}
	if err := b.AwaitInboxIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	b.ActiveFrames() // panics if a burst is left open on an idle inbox
	b.mu.Lock()
	holding := b.engine.Holding()
	b.mu.Unlock()
	if holding {
		t.Fatal("burst still open on an idle inbox")
	}
	if len(net.take()) == 0 {
		t.Fatal("the handled calls sent nothing")
	}

	for i := 5; i <= 20; i++ {
		b.Deliver(1, backCall(ids.TraceID{Initiator: 1, Seq: uint64(i)}, uint64(100+i), ids.ObjID(1+i%4)))
	}
	b.Close()
	b.mu.Lock()
	holding = b.engine.Holding()
	b.mu.Unlock()
	if holding {
		t.Fatal("burst still open after Close")
	}
}

// TestBurstConcurrentOwnSends: the dispatcher applies 300 BackCalls, one
// trace each, with a RefTransfer after every 25th; each transfer makes the
// site send site 3 an Insert in the middle of a burst. Meanwhile another
// goroutine runs local traces, which send site 3 Updates and retransmit the
// Inserts, and reads the site, which asserts that no burst outlives an idle
// inbox. On the link to site 3, each Insert must follow the BackCalls of
// every trace handled before its transfer (R1), however the two goroutines
// interleave.
func TestBurstConcurrentOwnSends(t *testing.T) {
	const calls, every = 300, 25
	b, net := newBurstSite(t, 4)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			b.RunLocalTrace()
			b.NumInrefs()
		}
	}()
	for i := 1; i <= calls; i++ {
		b.Deliver(1, backCall(ids.TraceID{Initiator: 1, Seq: uint64(i)}, uint64(i), ids.ObjID(1+i%4)))
		if i%every == 0 {
			b.Deliver(1, msg.RefTransfer{Payload: ids.MakeRef(3, ids.ObjID(i)), Pinner: 1})
		}
	}
	wg.Wait()
	if err := b.AwaitInboxIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	seen := map[uint64]bool{}        // traces whose BackCall reached site 3
	inserted := map[ids.ObjID]bool{} // transfers whose first Insert was checked
	for _, env := range net.take() {
		if env.To != 3 {
			continue
		}
		switch m := env.M.(type) {
		case msg.BackCall:
			seen[m.Trace.Seq] = true
		case msg.Insert:
			if inserted[m.Target.Obj] {
				continue // a local trace's retransmission
			}
			inserted[m.Target.Obj] = true
			for tr := uint64(1); tr <= uint64(m.Target.Obj); tr++ {
				if !seen[tr] {
					t.Fatalf("Insert for transfer after trace %d overtook trace %d's BackCall", m.Target.Obj, tr)
				}
			}
		}
	}
	if len(seen) != calls || len(inserted) != calls/every {
		t.Fatalf("site 3 got BackCalls of %d traces and %d Inserts, want %d and %d", len(seen), len(inserted), calls, calls/every)
	}
}
