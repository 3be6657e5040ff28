package refs

import (
	"math/rand"
	"testing"

	"backtrace/internal/ids"
)

// TestInrefsSortedCache checks that Inrefs() returns a deterministic
// ascending order, reuses its cache while membership is stable, and rebuilds
// it on insert and remove.
func TestInrefsSortedCache(t *testing.T) {
	tbl := NewTable(1, 7)
	for _, obj := range []ids.ObjID{30, 10, 20} {
		tbl.AddSource(obj, 2)
	}
	first := tbl.Inrefs()
	want := []ids.ObjID{10, 20, 30}
	for i, in := range first {
		if in.Obj != want[i] {
			t.Fatalf("Inrefs()[%d].Obj = %v, want %v", i, in.Obj, want[i])
		}
	}

	// Distance and flag updates must not rebuild (same backing array) and
	// must keep the order.
	tbl.SetSourceDistance(20, 2, 9)
	tbl.FlagGarbage(30)
	second := tbl.Inrefs()
	if &first[0] != &second[0] {
		t.Fatal("Inrefs() rebuilt its cache on a non-membership change")
	}

	// Insert invalidates and the new entry appears in order.
	tbl.AddSource(15, 3)
	third := tbl.Inrefs()
	want = []ids.ObjID{10, 15, 20, 30}
	if len(third) != len(want) {
		t.Fatalf("after insert: %d inrefs, want %d", len(third), len(want))
	}
	for i, in := range third {
		if in.Obj != want[i] {
			t.Fatalf("after insert: Inrefs()[%d].Obj = %v, want %v", i, in.Obj, want[i])
		}
	}

	// Remove invalidates too.
	if !tbl.RemoveSource(10, 2) {
		t.Fatal("RemoveSource(10) did not remove the inref")
	}
	fourth := tbl.Inrefs()
	want = []ids.ObjID{15, 20, 30}
	if len(fourth) != len(want) {
		t.Fatalf("after remove: %d inrefs, want %d", len(fourth), len(want))
	}
	for i, in := range fourth {
		if in.Obj != want[i] {
			t.Fatalf("after remove: Inrefs()[%d].Obj = %v, want %v", i, in.Obj, want[i])
		}
	}
}

// sameTableView fails unless snap mirrors live's tracer-visible state:
// inref set with distances and garbage flags, and outref existence.
func sameTableView(t *testing.T, live, snap *Table) {
	t.Helper()
	li, si := live.Inrefs(), snap.Inrefs()
	if len(li) != len(si) {
		t.Fatalf("inref count: live %d snap %d", len(li), len(si))
	}
	for i := range li {
		if li[i].Obj != si[i].Obj {
			t.Fatalf("inref %d: live obj %v snap obj %v", i, li[i].Obj, si[i].Obj)
		}
		if li[i].Distance() != si[i].Distance() {
			t.Fatalf("inref %v: live dist %d snap dist %d", li[i].Obj, li[i].Distance(), si[i].Distance())
		}
		if li[i].Garbage != si[i].Garbage {
			t.Fatalf("inref %v: live garbage %v snap garbage %v", li[i].Obj, li[i].Garbage, si[i].Garbage)
		}
		if li[i] == si[i] {
			t.Fatalf("inref %v: snapshot shares the live *Inref", li[i].Obj)
		}
	}
	lo, so := live.Outrefs(), snap.Outrefs()
	if len(lo) != len(so) {
		t.Fatalf("outref count: live %d snap %d", len(lo), len(so))
	}
	for i := range lo {
		if lo[i].Target != so[i].Target {
			t.Fatalf("outref %d: live %v snap %v", i, lo[i].Target, so[i].Target)
		}
	}
}

// TestTableTraceSnapshotEquivalence drives randomized table mutations and
// checks the patched shadow snapshot against the live view every round.
func TestTableTraceSnapshotEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tbl := NewTable(1, 7)
		var prev *Table
		for round := 0; round < 12; round++ {
			for step := 0; step < 25; step++ {
				obj := ids.ObjID(rng.Intn(12) + 1)
				src := ids.SiteID(rng.Intn(3) + 2)
				switch rng.Intn(6) {
				case 0:
					tbl.AddSource(obj, src)
				case 1:
					tbl.SetSourceDistance(obj, src, rng.Intn(10))
				case 2:
					tbl.RemoveSource(obj, src)
				case 3:
					tbl.FlagGarbage(obj)
				case 4:
					tbl.EnsureOutref(ids.Ref{Site: src, Obj: obj})
				case 5:
					tbl.RemoveOutref(ids.Ref{Site: src, Obj: obj})
				}
			}
			snap := tbl.TraceSnapshot()
			if round > 0 && snap != prev {
				t.Fatalf("seed %d round %d: snapshot not patched in place", seed, round)
			}
			prev = snap
			sameTableView(t, tbl, snap)
		}
	}
}
