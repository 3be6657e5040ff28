package site

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"backtrace/internal/ids"
	"backtrace/internal/msg"
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
}

// TestUpdateListsEachHeldOutrefOnce: a holder's Update puts an outref its
// trace reached in Distances only and one it did not (here, created by a
// transfer that arrived during the trace) in Holds only. An Update whose
// holds all ride Distances still counts as holding something, so the
// holder keeps owing the owner farewell updates.
func TestUpdateListsEachHeldOutrefOnce(t *testing.T) {
	a, b, net := newPair(t)
	x, y := a.NewHeldObject(), a.NewHeldObject()
	if err := a.SendRef(2, x); err != nil {
		t.Fatal(err)
	}
	net.DeliverAll()
	update := func() msg.Update {
		t.Helper()
		var got []msg.Update
		for _, env := range net.Pending() {
			if u, ok := env.M.(msg.Update); ok && env.From == 2 && env.To == 1 {
				got = append(got, u)
			}
		}
		if len(got) != 1 {
			t.Fatalf("holder sent %d Updates to the owner, want 1", len(got))
		}
		net.DeliverAll()
		return got[0]
	}

	b.RunLocalTrace()
	u := update()
	if len(u.Distances) != 1 || u.Distances[0].Obj != x.Obj || len(u.Holds) != 0 {
		t.Fatalf("update %+v, want x in Distances and no Holds", u)
	}
	b.mu.RLock()
	owed := b.farewell[1]
	b.mu.RUnlock()
	if owed != 3 {
		t.Fatalf("holder owes the owner %d farewell updates, want 3: an update with distances holds something", owed)
	}

	b.BeginLocalTrace()
	if err := a.SendRef(2, y); err != nil {
		t.Fatal(err)
	}
	net.DeliverAll()
	b.CommitLocalTrace()
	u = update()
	if len(u.Distances) != 1 || u.Distances[0].Obj != x.Obj || !slices.Equal(u.Holds, []ids.ObjID{y.Obj}) {
		t.Fatalf("update %+v, want x in Distances and y in Holds", u)
	}
}
