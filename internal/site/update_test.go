package site

import (
	"bytes"
	"maps"
	"reflect"
	"slices"
	"testing"

	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/msg"
	"backtrace/internal/transport"
)

// sourceView returns every inref's source list with the sources' distances.
func sourceView(s *Site) map[ids.ObjID]map[ids.SiteID]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	view := make(map[ids.ObjID]map[ids.SiteID]int)
	for _, in := range s.table.Inrefs() {
		view[in.Obj] = maps.Clone(in.Sources)
	}
	return view
}

// TestUpdateHoldFormsAgree: an Update lists each held outref once — in
// Distances when the sender's trace reached it, else in Holds — and the
// owner reconciles against the union of the two. An old-style Update, whose
// Holds repeats every object of Distances, is still valid under that rule:
// both forms must leave the owner's inref source tables identical, through
// a steady-state update, a lost removal healed by reconciliation, an empty
// farewell, lists out of order, and an object protected by a pending
// owner-sent transfer.
func TestUpdateHoldFormsAgree(t *testing.T) {
	type update struct {
		removals []int    // indexes into the owner's objects
		dists    [][2]int // traced holds, ascending: (index, distance)
		holds    []int    // untraced holds, ascending
		reverse  bool     // send every list in descending order
	}
	cases := []struct {
		name     string
		transfer bool // the owner sends object 4 to site 2 first
		u        update
		want     map[int][]ids.SiteID // index → sources afterwards; absent: no inref
	}{
		{
			name: "steady",
			u:    update{dists: [][2]int{{0, 2}, {1, 5}}, holds: []int{2, 3}},
			want: map[int][]ids.SiteID{0: {2, 3}, 1: {2}, 2: {2}, 3: {2}},
		},
		{
			name: "lost removal healed",
			u:    update{dists: [][2]int{{0, 2}, {1, 5}}, holds: []int{2}},
			want: map[int][]ids.SiteID{0: {2, 3}, 1: {2}, 2: {2}},
		},
		{
			name: "traced holds only",
			u:    update{dists: [][2]int{{0, 2}, {1, 5}, {2, 1}, {3, 9}}},
			want: map[int][]ids.SiteID{0: {2, 3}, 1: {2}, 2: {2}, 3: {2}},
		},
		{
			name: "empty farewell",
			want: map[int][]ids.SiteID{0: {3}},
		},
		{
			name: "descending lists",
			u:    update{removals: []int{3}, dists: [][2]int{{0, 2}, {2, 4}}, holds: []int{1}, reverse: true},
			want: map[int][]ids.SiteID{0: {2, 3}, 1: {2}, 2: {2}},
		},
		{
			name:     "pending owner-sent transfer",
			transfer: true,
			u:        update{dists: [][2]int{{0, 2}}, holds: []int{1}},
			want:     map[int][]ids.SiteID{0: {2, 3}, 1: {2}, 4: {2}},
		},
		{
			name:     "pending owner-sent transfer removed",
			transfer: true,
			u:        update{removals: []int{4}, holds: []int{0, 1, 2, 3}},
			want:     map[int][]ids.SiteID{0: {2, 3}, 1: {2}, 2: {2}, 3: {2}, 4: {2}},
		},
	}
	// owner builds site 1 with objects 0–4: site 2 is a source of 0–3 and
	// site 3 of 0 too.
	owner := func(t *testing.T, transfer bool) (*Site, []ids.Ref) {
		t.Helper()
		a := New(Config{ID: 1, Network: &recordingNet{}, SuspicionThreshold: 3, BackThreshold: 7})
		objs := make([]ids.Ref, 5)
		for i := range objs {
			objs[i] = a.NewObject()
		}
		a.mu.Lock()
		for _, o := range objs[:4] {
			a.table.SetSource(o.Obj, 2, 4)
		}
		a.table.SetSource(objs[0].Obj, 3, 6)
		a.mu.Unlock()
		if transfer {
			if err := a.SendRef(2, objs[4]); err != nil {
				t.Fatal(err)
			}
		}
		return a, objs
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func(objs []ids.Ref, full bool) msg.Update {
				var u msg.Update
				for _, i := range tc.u.removals {
					u.Removals = append(u.Removals, objs[i].Obj)
				}
				held := slices.Clone(tc.u.holds)
				for _, d := range tc.u.dists {
					u.Distances = append(u.Distances, msg.DistanceUpdate{Obj: objs[d[0]].Obj, Distance: d[1]})
					if full {
						held = append(held, d[0])
					}
				}
				slices.Sort(held)
				for _, i := range held {
					u.Holds = append(u.Holds, objs[i].Obj)
				}
				if tc.u.reverse {
					slices.Reverse(u.Removals)
					slices.Reverse(u.Distances)
					slices.Reverse(u.Holds)
				}
				return u
			}
			var views []map[ids.ObjID]map[ids.SiteID]int
			for _, full := range []bool{true, false} {
				a, objs := owner(t, tc.transfer)
				a.Deliver(2, build(objs, full))
				view := sourceView(a)
				want := make(map[ids.ObjID]map[ids.SiteID]int)
				for i, srcs := range tc.want {
					var got []ids.SiteID
					for src := range view[objs[i].Obj] {
						got = append(got, src)
					}
					slices.Sort(got)
					if !slices.Equal(got, srcs) {
						t.Errorf("full holds %v: object %d lists %v, want %v", full, i, got, srcs)
					}
					want[objs[i].Obj] = nil
				}
				for obj := range view {
					if _, ok := want[obj]; !ok {
						t.Errorf("full holds %v: inref %v survived, want it gone", full, obj)
					}
				}
				views = append(views, view)
			}
			if !reflect.DeepEqual(views[0], views[1]) {
				t.Fatalf("source tables differ:\nfull holds %v\none listing %v", views[0], views[1])
			}
		})
	}

	// The partial lineage: on lossless links, partial updates between the
	// full ones must leave every site's source table — sources and their
	// distances — exactly as a full update at every trace does, after
	// every commit of the mutation script, while carrying fewer distances.
	t.Run("partial lineage", func(t *testing.T) {
		for seed := int64(1); seed <= 5; seed++ {
			full := runMutationScript(t, seed, false, true)
			partial := runMutationScript(t, seed, false, false)
			for i := range full.sources {
				if !reflect.DeepEqual(partial.sources[i], full.sources[i]) {
					t.Fatalf("seed %d, commit %d: source tables differ:\npartial %v\nfull    %v",
						seed, i/3, partial.sources[i], full.sources[i])
				}
			}
			if !reflect.DeepEqual(partial.reports, full.reports) || !reflect.DeepEqual(partial.audits, full.audits) {
				t.Fatalf("seed %d: the partial and full lineages committed different traces", seed)
			}
			if partial.dists >= full.dists || partial.fulls >= full.fulls {
				t.Fatalf("seed %d: partial lineage sent %d distances in %d full updates, full lineage %d in %d",
					seed, partial.dists, partial.fulls, full.dists, full.fulls)
			}
		}
	})
}

// pendingUpdate returns the one Update queued on the link from → to.
func pendingUpdate(t *testing.T, net *transport.Net, from, to ids.SiteID) msg.Update {
	t.Helper()
	var got []msg.Update
	for _, env := range net.Pending() {
		if u, ok := env.M.(msg.Update); ok && env.From == from && env.To == to {
			got = append(got, u)
		}
	}
	if len(got) != 1 {
		t.Fatalf("site %v sent %d Updates to site %v, want 1", from, len(got), to)
	}
	return got[0]
}

// TestUpdateListsEachHeldOutrefOnce: a holder's first Update to an owner
// is full. It puts an outref the trace reached in Distances only, and one
// it did not (here, created by a transfer that arrived during the trace)
// in Holds only. The next fullUpdateEvery-1 Updates are partial: they
// carry no Holds and only the distances that changed, so an unchanged
// outref is left out and the untraced one is too. Then a full Update lists
// each held outref once again. An Update that lists nothing still counts
// as holding something while the holder holds outrefs at the owner, so it
// keeps owing the owner farewell updates.
func TestUpdateListsEachHeldOutrefOnce(t *testing.T) {
	a, b, net := newPair(t)
	x, y := a.NewHeldObject(), a.NewHeldObject()
	if err := a.SendRef(2, x); err != nil {
		t.Fatal(err)
	}
	net.DeliverAll()
	update := func() msg.Update {
		t.Helper()
		u := pendingUpdate(t, net, 2, 1)
		net.DeliverAll()
		return u
	}
	owed := func() int {
		b.mu.RLock()
		defer b.mu.RUnlock()
		return b.farewell[1]
	}

	b.RunLocalTrace()
	u := update()
	if u.Partial || len(u.Distances) != 1 || u.Distances[0].Obj != x.Obj || len(u.Holds) != 0 {
		t.Fatalf("first update %+v, want a full one with x in Distances and no Holds", u)
	}
	if n := owed(); n != 3 {
		t.Fatalf("holder owes the owner %d farewell updates, want 3: an update with distances holds something", n)
	}

	b.BeginLocalTrace()
	if err := a.SendRef(2, y); err != nil {
		t.Fatal(err)
	}
	net.DeliverAll()
	b.CommitLocalTrace()
	u = update()
	if !u.Partial || len(u.Distances) != 0 || len(u.Holds) != 0 || len(u.Removals) != 0 {
		t.Fatalf("second update %+v, want an empty partial one: x's distance is unchanged and y untraced", u)
	}
	if n := owed(); n != 3 {
		t.Fatalf("holder owes the owner %d farewell updates, want 3: it still holds x and y", n)
	}

	// y's first traced distance is news; after that nothing changes until
	// the next full update.
	for i := 3; i <= fullUpdateEvery; i++ {
		b.RunLocalTrace()
		u = update()
		want := 0
		if i == 3 {
			want = 1
		}
		if !u.Partial || len(u.Distances) != want || len(u.Holds) != 0 {
			t.Fatalf("update %d: %+v, want a partial one with %d distances", i, u, want)
		}
	}
	b.RunLocalTrace()
	u = update()
	if u.Partial || len(u.Distances) != 2 || len(u.Holds) != 0 {
		t.Fatalf("update %d: %+v, want a full one with x and y in Distances", fullUpdateEvery+1, u)
	}
	if got := b.Metrics().Get(metrics.UpdatesFull); got != 2 {
		t.Fatalf("%s = %d, want 2", metrics.UpdatesFull, got)
	}
	if got := b.Metrics().Get(metrics.UpdateDistances); got != 4 {
		t.Fatalf("%s = %d, want 4 (x; y; x and y)", metrics.UpdateDistances, got)
	}
}

// TestLostPartialRemovalHealsAtNextFull: a partial Update that carried a
// removal is lost. The owner keeps listing the holder for that object
// through the partial updates that follow (they carry no hold set), and the
// next full Update's reconciliation drops it.
func TestLostPartialRemovalHealsAtNextFull(t *testing.T) {
	a, b, net := newPair(t)
	x, y := a.NewHeldObject(), a.NewHeldObject()
	for _, r := range []ids.Ref{x, y} {
		if err := a.SendRef(2, r); err != nil {
			t.Fatal(err)
		}
	}
	net.DeliverAll()
	listed := func() bool {
		_, ok := sourceView(a)[y.Obj][2]
		return ok
	}

	b.RunLocalTrace()
	if u := pendingUpdate(t, net, 2, 1); u.Partial {
		t.Fatalf("first update %+v is partial", u)
	}
	net.DeliverAll()

	b.DropAppRoot(y)
	b.RunLocalTrace()
	u := pendingUpdate(t, net, 2, 1)
	if !u.Partial || !slices.Equal(u.Removals, []ids.ObjID{y.Obj}) {
		t.Fatalf("update %+v, want a partial one removing y", u)
	}
	net.DropMatching(func(env msg.Envelope) bool { _, ok := env.M.(msg.Update); return ok })
	net.DeliverAll()

	// Updates 3 .. fullUpdateEvery are partial and leave the stale source.
	for i := 3; i <= fullUpdateEvery; i++ {
		b.RunLocalTrace()
		if u := pendingUpdate(t, net, 2, 1); !u.Partial {
			t.Fatalf("update %d %+v is full, want partial", i, u)
		}
		net.DeliverAll()
		if !listed() {
			t.Fatalf("update %d: owner dropped the holder from y without a full update", i)
		}
	}
	b.RunLocalTrace()
	if u := pendingUpdate(t, net, 2, 1); u.Partial {
		t.Fatalf("update %d %+v is partial, want full", fullUpdateEvery+1, u)
	}
	net.DeliverAll()
	if listed() {
		t.Fatal("the full update did not heal the lost removal: the owner still lists the holder for y")
	}
	if _, ok := sourceView(a)[x.Obj][2]; !ok {
		t.Fatal("the full update dropped the holder from x, which it still holds")
	}
}

// TestPeerRestartSendsFullUpdate: an owner restarts from a checkpoint that
// predates the holder's last distance. The holder learns of the restart
// (PeerRestarted) and its next Update is full, so the restarted owner gets
// the distance back although it had not changed at the holder.
func TestPeerRestartSendsFullUpdate(t *testing.T) {
	a, b, net := newPair(t)
	// a's persistent root holds b's w, and w holds a's x: b's outref for x
	// sits at distance 2.
	root := a.NewRootObject()
	w := b.NewHeldObject()
	x := a.NewHeldObject()
	if err := b.SendRef(1, w); err != nil {
		t.Fatal(err)
	}
	if err := a.SendRef(2, x); err != nil {
		t.Fatal(err)
	}
	net.DeliverAll()
	if err := a.AddReference(root.Obj, w); err != nil {
		t.Fatal(err)
	}
	if err := b.AddReference(w.Obj, x); err != nil {
		t.Fatal(err)
	}
	a.DropAppRoot(w)
	b.DropAppRoot(w)
	b.DropAppRoot(x)

	var ckpt bytes.Buffer
	if err := a.WriteCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	dist := func(s *Site) int {
		t.Helper()
		d, ok := sourceView(s)[x.Obj][2]
		if !ok {
			t.Fatal("owner does not list the holder for x")
		}
		return d
	}
	if d := dist(a); d != 1 {
		t.Fatalf("checkpointed distance %d, want the new-source default 1", d)
	}

	a.RunLocalTrace()
	net.DeliverAll()
	b.RunLocalTrace()
	if u := pendingUpdate(t, net, 2, 1); u.Partial {
		t.Fatalf("first update %+v is partial", u)
	}
	net.DeliverAll()
	if d := dist(a); d != 2 {
		t.Fatalf("owner has distance %d for the holder, want 2", d)
	}
	a.RunLocalTrace()
	net.DeliverAll()
	b.RunLocalTrace()
	if u := pendingUpdate(t, net, 2, 1); !u.Partial || len(u.Distances) != 0 {
		t.Fatalf("second update %+v, want an empty partial one", u)
	}
	net.DeliverAll()

	// Crash the owner and bring it back from the checkpoint; Restore
	// announces the restart to the holder.
	net.DropMatching(func(e msg.Envelope) bool { return e.To == 1 || e.From == 1 })
	a2, err := Restore(Config{Network: net, SuspicionThreshold: 3, BackThreshold: 7}, &ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if d := dist(a2); d != 1 {
		t.Fatalf("restored distance %d, want the checkpoint's 1", d)
	}
	b.RunLocalTrace()
	u := pendingUpdate(t, net, 2, 1)
	if u.Partial || !slices.Contains(u.Distances, msg.DistanceUpdate{Obj: x.Obj, Distance: 2}) {
		t.Fatalf("update after the restart %+v, want a full one with x at distance 2", u)
	}
	net.DeliverAll()
	if d := dist(a2); d != 2 {
		t.Fatalf("restarted owner has distance %d for the holder, want 2", d)
	}
}

// TestLostFarewellRemovalHeals: a holder drops its last outref at an owner
// and the Update carrying the removal is lost. An Update to an owner the
// holder holds nothing at is full (it carries nothing a partial one would
// leave out), so the first farewell update reconciles the stale source
// away before the farewells stop.
func TestLostFarewellRemovalHeals(t *testing.T) {
	a, b, net := newPair(t)
	x := a.NewHeldObject()
	if err := a.SendRef(2, x); err != nil {
		t.Fatal(err)
	}
	net.DeliverAll()
	b.RunLocalTrace()
	net.DeliverAll()

	b.DropAppRoot(x)
	b.RunLocalTrace()
	if u := pendingUpdate(t, net, 2, 1); u.Partial || !slices.Equal(u.Removals, []ids.ObjID{x.Obj}) {
		t.Fatalf("update %+v, want a full one removing x", u)
	}
	net.DropMatching(func(env msg.Envelope) bool { _, ok := env.M.(msg.Update); return ok })
	if _, ok := sourceView(a)[x.Obj][2]; !ok {
		t.Fatal("owner lost the holder for x before any update arrived")
	}
	b.RunLocalTrace()
	if u := pendingUpdate(t, net, 2, 1); u.Partial || len(u.Removals)+len(u.Distances)+len(u.Holds) != 0 {
		t.Fatalf("farewell update %+v, want an empty full one", u)
	}
	net.DeliverAll()
	if _, ok := sourceView(a)[x.Obj][2]; ok {
		t.Fatal("the farewell update did not heal the lost removal")
	}
}
