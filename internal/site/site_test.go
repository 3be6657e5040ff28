package site

import (
	"strings"
	"testing"
	"time"

	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/msg"
	"backtrace/internal/transport"
)

// newPair builds two sites on a stepped in-memory network.
func newPair(t *testing.T) (*Site, *Site, *transport.Net) {
	t.Helper()
	net := transport.NewNet(transport.Options{Stepped: true})
	t.Cleanup(net.Close)
	a := New(Config{ID: 1, Network: net, SuspicionThreshold: 3, BackThreshold: 7})
	b := New(Config{ID: 2, Network: net, SuspicionThreshold: 3, BackThreshold: 7})
	return a, b, net
}

func TestMutatorAPIErrors(t *testing.T) {
	a, _, _ := newPair(t)

	if err := a.AddReference(99, ids.MakeRef(1, 1)); err == nil {
		t.Error("AddReference with missing container accepted")
	}
	x := a.NewObject()
	if err := a.AddReference(x.Obj, ids.MakeRef(1, 999)); err == nil {
		t.Error("AddReference to missing local target accepted")
	}
	if err := a.AddReference(x.Obj, ids.MakeRef(2, 1)); err == nil {
		t.Error("AddReference to never-transferred remote target accepted")
	}
	if err := a.SendRef(2, ids.Ref{}); err == nil {
		t.Error("SendRef of zero ref accepted")
	}
	if err := a.SendRef(2, ids.MakeRef(1, 999)); err == nil {
		t.Error("SendRef of missing local object accepted")
	}
	if err := a.SendRef(2, ids.MakeRef(3, 9)); err == nil {
		t.Error("SendRef of unheld remote ref accepted")
	}
	if err := a.Traverse(ids.MakeRef(1, 1)); err == nil {
		t.Error("Traverse of local ref accepted")
	}
	if _, err := a.Fields(12345); err == nil {
		t.Error("Fields of missing object accepted")
	}
	if err := a.MarkPersistentRoot(12345); err == nil {
		t.Error("MarkPersistentRoot of missing object accepted")
	}
}

func TestRemoveReference(t *testing.T) {
	a, _, _ := newPair(t)
	x := a.NewObject()
	y := a.NewObject()
	if err := a.AddReference(x.Obj, y); err != nil {
		t.Fatal(err)
	}
	if err := a.RemoveReference(x.Obj, y); err != nil {
		t.Fatal(err)
	}
	fields, err := a.Fields(x.Obj)
	if err != nil || len(fields) != 0 {
		t.Fatalf("fields = %v, %v", fields, err)
	}
}

func TestTransferBarrierCleansSuspectedInrefAndOutset(t *testing.T) {
	_, b, _ := newPair(t)

	// At B: object x with a suspected inref from site 1, referencing a
	// remote object r at site 1 (suspected outref).
	x := b.NewObject()
	r := ids.MakeRef(1, 50)
	b.mu.Lock()
	b.table.AddSource(x.Obj, 1)
	b.table.SetSourceDistance(x.Obj, 1, 20)
	if err := b.heap.AddField(x.Obj, r); err != nil {
		b.mu.Unlock()
		t.Fatal(err)
	}
	b.table.EnsureOutref(r)
	b.mu.Unlock()

	// A local trace computes the back information: outset(x) = {r}.
	b.RunLocalTrace()
	b.mu.Lock()
	in, ok := b.table.Inref(x.Obj)
	if !ok || in.IsClean(b.cfg.SuspicionThreshold) {
		b.mu.Unlock()
		t.Fatal("setup: inref should exist and be suspected")
	}
	o, ok := b.table.Outref(r)
	if !ok || o.IsClean(b.cfg.SuspicionThreshold) {
		b.mu.Unlock()
		t.Fatalf("setup: outref should be suspected (dist=%d)", o.Distance)
	}
	if got := b.back.Outset(x.Obj); len(got) != 1 || got[0] != r {
		b.mu.Unlock()
		t.Fatalf("setup: outset(x) = %v, want {r}", got)
	}
	b.mu.Unlock()

	// A mutator transfers a reference to x here: the transfer barrier
	// must clean the inref AND every outref in its outset (Section 6.1.1).
	b.Deliver(1, msg.RefTransfer{Payload: x, Pinner: ids.NoSite})

	b.mu.Lock()
	defer b.mu.Unlock()
	if !in.Barrier || !in.IsClean(b.cfg.SuspicionThreshold) {
		t.Error("transfer barrier did not clean the inref")
	}
	if !o.Barrier || !o.IsClean(b.cfg.SuspicionThreshold) {
		t.Error("transfer barrier did not clean the outrefs in the inset")
	}
}

func TestDeliverUnknownMessageTypesIgnored(t *testing.T) {
	a, _, _ := newPair(t)
	// InsertAck and ReleasePin for unknown targets must be no-ops.
	a.Deliver(2, msg.InsertAck{Target: ids.MakeRef(2, 9)})
	a.Deliver(2, msg.ReleasePin{Target: ids.MakeRef(2, 9)})
	a.Deliver(2, msg.Update{Removals: []ids.ObjID{42}})
	a.Deliver(2, msg.Report{Trace: ids.TraceID{Initiator: 2, Seq: 1}})
}

func TestInsertForMissingObjectStillReleasesPin(t *testing.T) {
	a, b, net := newPair(t)
	// Site 3 passes B a reference to an object A does not have (a third
	// party's transfer, so B runs the insert protocol). A must create no
	// inref, but it still acknowledges B and releases the pinner.
	b.Deliver(3, msg.RefTransfer{Payload: ids.MakeRef(1, 999), Pinner: 3})
	pend := net.Pending()
	if len(pend) != 1 {
		t.Fatalf("B sent %d messages, want one Insert", len(pend))
	}
	if ins, ok := pend[0].M.(msg.Insert); !ok || ins.Pinner != 3 || pend[0].To != 1 {
		t.Fatalf("B sent %s to %v, want an Insert with pinner 3 to A", msg.Name(pend[0].M), pend[0].To)
	}
	net.DeliverAll()
	if a.NumInrefs() != 0 {
		t.Fatal("inref created for missing object")
	}
	b.mu.RLock()
	pending := len(b.pendingInserts)
	b.mu.RUnlock()
	if pending != 0 {
		t.Fatal("B still retransmits the insert after A acknowledged it")
	}
}

// TestOwnerSendSkipsInsert: an owner passing its own object sends one
// RefTransfer and lists the receiver as a source at once. The receiver
// creates its outref and answers with a receipt (a ReleasePin for the
// owner's object) instead of an Insert; the receipt empties the owner's
// record.
func TestOwnerSendSkipsInsert(t *testing.T) {
	a, b, net := newPair(t)
	x := a.NewHeldObject()
	if err := a.SendRef(2, x); err != nil {
		t.Fatal(err)
	}
	pend := net.Pending()
	if len(pend) != 1 {
		t.Fatalf("owner send queued %d messages, want 1", len(pend))
	}
	if rt, ok := pend[0].M.(msg.RefTransfer); !ok || rt.Pinner != ids.NoSite {
		t.Fatalf("owner send queued %+v, want a RefTransfer with no pinner", pend[0].M)
	}
	if ins := a.Inrefs(); len(ins) != 1 || len(ins[0].Sources) != 1 || ins[0].Sources[0] != 2 || !ins[0].Clean {
		t.Fatalf("owner inrefs = %+v, want one clean inref listing site 2", ins)
	}
	if n := a.OwnerTransfersPending(); n != 1 {
		t.Fatalf("owner records %d transfers, want 1", n)
	}
	a.DropAppRoot(x)

	net.DeliverNext()
	pend = net.Pending()
	if len(pend) != 1 || pend[0].To != 1 {
		t.Fatalf("receiver answered with %d messages, want one receipt to the owner", len(pend))
	}
	if rp, ok := pend[0].M.(msg.ReleasePin); !ok || rp.Target != x {
		t.Fatalf("receiver answered %s, want a ReleasePin for %v", msg.Name(pend[0].M), x)
	}
	if outs := b.Outrefs(); len(outs) != 1 || outs[0].Target != x || !outs[0].Clean {
		t.Fatalf("receiver outrefs = %+v, want a clean outref for %v", outs, x)
	}
	net.DeliverAll()
	if n := a.OwnerTransfersPending(); n != 0 {
		t.Fatalf("owner still records %d transfers after the receipt", n)
	}
	b.RunLocalTrace()
	pend = net.Pending()
	if len(pend) != 1 {
		t.Fatalf("receiver's trace sent %d messages, want one Update", len(pend))
	}
	if _, ok := pend[0].M.(msg.Update); !ok {
		t.Fatalf("receiver sent %+v, want an Update", pend[0].M)
	}
	net.DeliverAll()
	a.RunLocalTrace()
	if !a.ContainsObject(x.Obj) {
		t.Fatal("owner collected the object its receiver holds")
	}
}

// TestOwnerTransferStaleUpdate: an Update the receiver built before the
// owner's transfer arrived — one reconciling the object away, one removing
// it outright — must not drop the receiver as a source, and the owner's
// local traces keep the object's inref barrier-clean until the receiver's
// receipt arrives.
func TestOwnerTransferStaleUpdate(t *testing.T) {
	for _, removal := range []bool{false, true} {
		a, b, net := newPair(t)
		// B holds y throughout, so each of its updates to A lists holds.
		y := a.NewHeldObject()
		if err := a.SendRef(2, y); err != nil {
			t.Fatal(err)
		}
		net.DeliverAll()
		x := a.NewHeldObject()
		if removal {
			// The receiver already holds x, then drops it: its next update
			// removes x while the owner's second transfer is in flight.
			if err := a.SendRef(2, x); err != nil {
				t.Fatal(err)
			}
			net.DeliverAll()
			b.RunLocalTrace()
			net.DeliverAll()
			b.DropAppRoot(x)
		}
		if err := a.SendRef(2, x); err != nil {
			t.Fatal(err)
		}
		b.RunLocalTrace() // built before the transfer arrives
		a.DropAppRoot(x)
		// Deliver only B's update: the transfer stays in flight.
		for _, env := range net.Pending() {
			if env.From == 2 {
				net.DeliverLinkHead(2, 1)
			}
		}
		// Suppose B's stale update had reported x far from any root: only
		// the transfer barrier keeps x's inref clean now.
		a.mu.Lock()
		a.table.SetSourceDistance(x.Obj, 2, 20)
		a.mu.Unlock()
		for i := 0; i < 2; i++ {
			a.RunLocalTrace()
			var got *InrefInfo
			for _, in := range a.Inrefs() {
				if in.Obj == x.Obj {
					got = &in
				}
			}
			if got == nil || !got.Clean || len(got.Sources) != 1 {
				t.Fatalf("removal=%v: after the owner's trace x's inref is %+v, want clean and listing site 2", removal, got)
			}
		}
		if !a.ContainsObject(x.Obj) {
			t.Fatalf("removal=%v: owner collected an object in transfer", removal)
		}
		net.DeliverAll()
		b.RunLocalTrace()
		net.DeliverAll()
		if n := a.OwnerTransfersPending(); n != 0 {
			t.Fatalf("removal=%v: %d transfers still recorded", removal, n)
		}
	}
}

// TestInsertAfterOwnerSendReleasesPinOnce: the receiver applies a third
// party's transfer of the owner's object first (sending an Insert) while
// the owner's own transfer of it is in flight. The owner already lists the
// receiver, yet that first Insert must release the third party's pin; the
// Insert's retransmission must not release it again.
func TestInsertAfterOwnerSendReleasesPinOnce(t *testing.T) {
	net := &recordingNet{}
	a := New(Config{ID: 1, Network: net, SuspicionThreshold: 3, BackThreshold: 7})
	x := a.NewHeldObject()
	if err := a.SendRef(2, x); err != nil {
		t.Fatal(err)
	}
	net.take()
	ins := msg.Insert{Target: x, Holder: 2, Pinner: 3}
	var releases int
	for i := 0; i < 3; i++ { // the first Insert and two retransmissions
		a.Deliver(2, ins)
		for _, env := range net.take() {
			if _, ok := env.M.(msg.ReleasePin); ok && env.To == 3 {
				releases++
			}
		}
	}
	if releases != 1 {
		t.Fatalf("the pinner got %d releases, want exactly 1", releases)
	}
}

// TestPeerRestartOrderedBehindInbox: on a mailbox site, the news of a
// peer's restart arrives while messages from its dead incarnation are still
// queued. The owner voids its record for the holder, sends x again to the
// new incarnation, and only then applies the dead incarnation's receipt for
// x, followed by the new incarnation's first Update (built from the
// checkpoint before the new transfer arrived, so it removes x). The stale
// receipt must not clear the new transfer, or that Update would drop the
// holder and x would be collected in transfer. The other way round, a
// holder does not receipt a dead owner's transfer it applies after the
// news: the owner's new incarnation never recorded it.
func TestPeerRestartOrderedBehindInbox(t *testing.T) {
	net := &recordingNet{}
	a := New(Config{ID: 1, Network: net, SuspicionThreshold: 3, BackThreshold: 7, InboxSize: 16})
	t.Cleanup(a.Close)
	x := a.NewHeldObject()
	if err := a.SendRef(2, x); err != nil {
		t.Fatal(err)
	}
	// Hold the site lock so the dispatcher applies nothing until every
	// step below has run, in this order; PeerRestarted is spelled out.
	a.mu.Lock()
	a.Deliver(2, msg.ReleasePin{Target: x})
	a.voidPeerLocked(2)
	a.inbox.enqueue(2, nil)
	if err := a.sendRefLocked(2, x); err != nil {
		a.mu.Unlock()
		t.Fatal(err)
	}
	a.Deliver(2, msg.Update{Removals: []ids.ObjID{x.Obj}})
	a.mu.Unlock()
	if err := a.AwaitInboxIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := a.OwnerTransfersPending(); n != 1 {
		t.Fatalf("owner records %d transfers after the stale receipt, want the new one", n)
	}
	a.DropAppRoot(x)
	a.RunLocalTrace()
	if srcs := a.Inrefs(); !a.ContainsObject(x.Obj) || len(srcs) != 1 || len(srcs[0].Sources) != 1 {
		t.Fatalf("owner dropped the new holder of an object in transfer: inrefs %+v", srcs)
	}
	a.Deliver(2, msg.ReleasePin{Target: x})
	if err := a.AwaitInboxIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := a.OwnerTransfersPending(); n != 0 {
		t.Fatalf("owner records %d transfers after the new incarnation's receipt", n)
	}

	b := New(Config{ID: 2, Network: net, SuspicionThreshold: 3, BackThreshold: 7, InboxSize: 16})
	t.Cleanup(b.Close)
	net.take()
	y := ids.MakeRef(1, 77)
	b.mu.Lock()
	b.Deliver(1, msg.RefTransfer{Payload: y})
	b.voidPeerLocked(1)
	b.inbox.enqueue(1, nil)
	b.mu.Unlock()
	b.Deliver(1, msg.RefTransfer{Payload: ids.MakeRef(1, 78)})
	if err := b.AwaitInboxIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	var receipts []ids.Ref
	for _, env := range net.take() {
		if rp, ok := env.M.(msg.ReleasePin); ok && env.To == 1 {
			receipts = append(receipts, rp.Target)
		}
	}
	if len(receipts) != 1 || receipts[0] != ids.MakeRef(1, 78) {
		t.Fatalf("holder receipted %v, want only the new incarnation's transfer", receipts)
	}
}

// TestTCPEndToEndCycleCollection runs two real sites over TCP loopback and
// collects a two-site garbage cycle — the full stack, sockets included.
func TestTCPEndToEndCycleCollection(t *testing.T) {
	counters := &metrics.Counters{}
	addrs := map[ids.SiteID]string{1: "127.0.0.1:0", 2: "127.0.0.1:0"}

	n1, err := transport.NewTCPNode(1, addrs, counters.ObserveMessage)
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	n2, err := transport.NewTCPNode(2, addrs, counters.ObserveMessage)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()

	s1 := New(Config{ID: 1, Network: n1, SuspicionThreshold: 3, BackThreshold: 7,
		AutoBackTrace: true, CallTimeout: 2 * time.Second, ReportTimeout: 10 * time.Second,
		Counters: counters})
	s2 := New(Config{ID: 2, Network: n2, SuspicionThreshold: 3, BackThreshold: 7,
		AutoBackTrace: true, CallTimeout: 2 * time.Second, ReportTimeout: 10 * time.Second,
		Counters: counters})

	a1, err := n1.Listen()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := n2.Listen()
	if err != nil {
		t.Fatal(err)
	}
	n1.SetAddr(2, a2)
	n2.SetAddr(1, a1)

	link := func(holder, owner *Site, from, target ids.Ref) {
		t.Helper()
		if err := owner.SendRef(from.Site, target); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			if err := holder.AddReference(from.Obj, target); err == nil {
				holder.DropAppRoot(target)
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("transfer of %v never arrived", target)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	root := s1.NewRootObject()
	live := s2.NewObject()
	link(s1, s2, root, live)
	x := s1.NewObject()
	y := s2.NewObject()
	link(s1, s2, x, y)
	link(s2, s1, y, x)

	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		s1.RunLocalTrace()
		s2.RunLocalTrace()
		time.Sleep(20 * time.Millisecond)
		s1.CheckTimeouts()
		s2.CheckTimeouts()
		if !s1.ContainsObject(x.Obj) && !s2.ContainsObject(y.Obj) {
			break
		}
	}
	if s1.ContainsObject(x.Obj) || s2.ContainsObject(y.Obj) {
		t.Fatal("cycle not collected over TCP")
	}
	if !s1.ContainsObject(root.Obj) || !s2.ContainsObject(live.Obj) {
		t.Fatal("live object collected")
	}
}

// TestTraceEngineInstrumentsDeclared pins the /metrics contract the CI
// smoke scrape greps for: site.New declares the trace-traffic instruments,
// the local trace's mark/outsets split, the lock-hold histograms of the
// local trace's and the checkpoint's cuts, and the Update counters up
// front, so they render (at zero) before any trace runs.
func TestTraceEngineInstrumentsDeclared(t *testing.T) {
	net := transport.NewNet(transport.Options{Stepped: true})
	t.Cleanup(net.Close)
	counters := &metrics.Counters{}
	s := New(Config{ID: 1, Network: net, SuspicionThreshold: 3, BackThreshold: 7, Counters: counters})
	t.Cleanup(s.Close)

	var b strings.Builder
	if err := counters.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"\nbacktrace_inflight 0\n",
		"\nbacktrace_batch_size 0\n",
		"\nbacktrace_joined 0\n",
		"\nbacktrace_deferred 0\n",
		"\nlocaltrace_mark_seconds_count 0\n",
		"\nlocaltrace_outsets_seconds_count 0\n",
		"\nlocaltrace_cut_seconds_count 0\n",
		"\ncheckpoint_cut_seconds_count 0\n",
		"\nupdate_full 0\n",
		"\nupdate_distances 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", strings.TrimSpace(want))
		}
	}
}
