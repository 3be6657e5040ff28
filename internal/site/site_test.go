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
	// B claims to hold a reference to a non-existent object at A, with A
	// itself as pinner (degenerate); the insert must not create an inref.
	b.Deliver(1, msg.RefTransfer{Payload: ids.MakeRef(1, 999), Pinner: 1})
	net.DeliverAll()
	if a.NumInrefs() != 0 {
		t.Fatal("inref created for missing object")
	}
	_ = a
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
// smoke scrape greps for: site.New declares the trace-traffic instruments
// and the local trace's mark/outsets split up front, so they render (at
// zero) before any trace runs and with the engine knobs off.
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
		"\nbacktrace_memo_hits 0\n",
		"\nbacktrace_batch_size 0\n",
		"\nbacktrace_joined 0\n",
		"\nbacktrace_deferred 0\n",
		"\nlocaltrace_mark_seconds_count 0\n",
		"\nlocaltrace_outsets_seconds_count 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", strings.TrimSpace(want))
		}
	}
}
