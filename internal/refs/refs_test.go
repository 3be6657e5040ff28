package refs

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"backtrace/internal/ids"
)

const testT2 = 8 // default back threshold used by table tests

func TestAddDistSaturates(t *testing.T) {
	tests := []struct {
		d, hops, want int
	}{
		{0, 1, 1},
		{5, 3, 8},
		{DistInfinity, 1, DistInfinity},
		{DistInfinity - 1, 1, DistInfinity},
		{DistInfinity - 1, 5, DistInfinity},
	}
	for _, tt := range tests {
		if got := AddDist(tt.d, tt.hops); got != tt.want {
			t.Errorf("AddDist(%d, %d) = %d, want %d", tt.d, tt.hops, tt.want, got)
		}
	}
}

func TestInrefDistanceIsMinOverSources(t *testing.T) {
	tbl := NewTable(1, testT2)
	in := tbl.AddSource(5, 2)
	if d := in.Distance(); d != 1 {
		t.Fatalf("new source distance = %d, want 1", d)
	}
	tbl.SetSourceDistance(5, 2, 7)
	tbl.AddSource(5, 3)
	tbl.SetSourceDistance(5, 3, 4)
	if d := in.Distance(); d != 4 {
		t.Fatalf("Distance = %d, want min(7,4)=4", d)
	}
}

func TestInrefDistanceEmptyIsInfinity(t *testing.T) {
	in := &Inref{Obj: 1, Sources: map[ids.SiteID]int{}}
	if in.Distance() != DistInfinity {
		t.Fatal("empty source list should have infinite distance")
	}
}

func TestAddSourceDoesNotLowerExistingDistance(t *testing.T) {
	tbl := NewTable(1, testT2)
	tbl.AddSource(5, 2)
	tbl.SetSourceDistance(5, 2, 9)
	in := tbl.AddSource(5, 2) // re-add existing source
	if got := in.Sources[2]; got != 9 {
		t.Fatalf("re-adding source reset distance to %d, want 9", got)
	}
}

func TestSetSourceDistanceIgnoresUnknown(t *testing.T) {
	tbl := NewTable(1, testT2)
	tbl.SetSourceDistance(5, 2, 3) // no inref at all
	if _, ok := tbl.Inref(5); ok {
		t.Fatal("SetSourceDistance created an inref")
	}
	tbl.AddSource(5, 2)
	tbl.SetSourceDistance(5, 3, 3) // unknown source
	in, _ := tbl.Inref(5)
	if _, ok := in.Sources[3]; ok {
		t.Fatal("SetSourceDistance created a source entry")
	}
}

func TestInrefCleanliness(t *testing.T) {
	tbl := NewTable(1, 4)
	in := tbl.AddSource(5, 2)
	tbl.SetSourceDistance(5, 2, 4)
	if !in.IsClean(4) {
		t.Error("distance == threshold should be clean")
	}
	tbl.SetSourceDistance(5, 2, 5)
	if in.IsClean(4) {
		t.Error("distance > threshold should be suspected")
	}
	in.Barrier = true
	if !in.IsClean(4) {
		t.Error("barrier-cleaned inref should be clean")
	}
	in.Garbage = true
	if in.IsClean(4) {
		t.Error("garbage-flagged inref must never be clean")
	}
}

func TestRemoveSourceDropsEmptyInref(t *testing.T) {
	tbl := NewTable(1, testT2)
	tbl.AddSource(5, 2)
	tbl.AddSource(5, 3)
	if removed := tbl.RemoveSource(5, 2); removed {
		t.Fatal("inref removed while a source remained")
	}
	if removed := tbl.RemoveSource(5, 3); !removed {
		t.Fatal("inref not removed when source list emptied")
	}
	if _, ok := tbl.Inref(5); ok {
		t.Fatal("empty inref still present")
	}
	if removed := tbl.RemoveSource(5, 9); removed {
		t.Fatal("removing from missing inref reported removal")
	}
}

func TestInrefVisitedMarks(t *testing.T) {
	in := &Inref{Obj: 1}
	tr := ids.TraceID{Initiator: 2, Seq: 1}
	if _, already := in.MarkVisited(tr, 0); already {
		t.Fatal("first visit reported as already visited")
	}
	owner, already := in.MarkVisited(tr, 3)
	if !already {
		t.Fatal("second visit not reported as already visited")
	}
	if owner != 0 {
		t.Fatalf("revisit owner = %d, want the first visitor's suspect 0", owner)
	}
	tr2 := ids.TraceID{Initiator: 3, Seq: 1}
	if _, already := in.MarkVisited(tr2, 5); already {
		t.Fatal("distinct trace reported as already visited")
	}
	if owner, already := in.MarkVisited(tr2, 0); !already || owner != 5 {
		t.Fatalf("revisit of second trace: owner=%d already=%v, want 5 true", owner, already)
	}
	in.ClearVisited(tr)
	if _, already := in.MarkVisited(tr, 0); already {
		t.Fatal("visit after clear reported as already visited")
	}
}

func TestEnsureOutrefDefaults(t *testing.T) {
	tbl := NewTable(1, testT2)
	target := ids.MakeRef(2, 7)
	o, created := tbl.EnsureOutref(target)
	if !created {
		t.Fatal("first EnsureOutref did not create")
	}
	if o.Distance != 1 {
		t.Errorf("new outref distance = %d, want 1", o.Distance)
	}
	if !o.Barrier {
		t.Error("new outref should start barrier-clean (Section 6.1.2 case 4)")
	}
	if o.BackThreshold != testT2 {
		t.Errorf("new outref back threshold = %d, want %d", o.BackThreshold, testT2)
	}
	if _, created := tbl.EnsureOutref(target); created {
		t.Fatal("second EnsureOutref created again")
	}
}

func TestOutrefCleanliness(t *testing.T) {
	o := &Outref{Target: ids.MakeRef(2, 7), Distance: 10}
	if o.IsClean(4) {
		t.Error("distant outref should be suspected")
	}
	o.Distance = 4
	if !o.IsClean(4) {
		t.Error("distance == threshold should be clean")
	}
	o.Distance = 10
	o.Pins = 1
	if !o.IsClean(4) {
		t.Error("pinned outref must be clean")
	}
	o.Pins = 0
	o.Barrier = true
	if !o.IsClean(4) {
		t.Error("barrier-cleaned outref must be clean")
	}
}

func TestPinUnpin(t *testing.T) {
	tbl := NewTable(1, testT2)
	target := ids.MakeRef(2, 7)
	o := tbl.Pin(target)
	if o.Pins != 1 {
		t.Fatalf("Pins = %d, want 1", o.Pins)
	}
	tbl.Pin(target)
	if o.Pins != 2 {
		t.Fatalf("Pins = %d, want 2", o.Pins)
	}
	tbl.Unpin(target)
	tbl.Unpin(target)
	if o.Pins != 0 {
		t.Fatalf("Pins = %d, want 0", o.Pins)
	}
	tbl.Unpin(target) // extra unpin must be a harmless no-op
	if o.Pins != 0 {
		t.Fatalf("Pins went negative: %d", o.Pins)
	}
	tbl.Unpin(ids.MakeRef(9, 9)) // missing outref: no-op
}

func TestResetBarriers(t *testing.T) {
	tbl := NewTable(1, testT2)
	in := tbl.AddSource(5, 2)
	in.Barrier = true
	o, _ := tbl.EnsureOutref(ids.MakeRef(2, 7))
	o.Barrier = true
	o.Pins = 1
	tbl.ResetBarriers()
	if in.Barrier || o.Barrier {
		t.Fatal("ResetBarriers left a barrier mark set")
	}
	if o.Pins != 1 {
		t.Fatal("ResetBarriers must not touch pins")
	}
}

func TestTablesSortedIteration(t *testing.T) {
	tbl := NewTable(1, testT2)
	tbl.AddSource(9, 2)
	tbl.AddSource(3, 2)
	tbl.AddSource(7, 2)
	ins := tbl.Inrefs()
	if len(ins) != 3 || ins[0].Obj != 3 || ins[1].Obj != 7 || ins[2].Obj != 9 {
		t.Fatalf("Inrefs order wrong: %v", []ids.ObjID{ins[0].Obj, ins[1].Obj, ins[2].Obj})
	}
	tbl.EnsureOutref(ids.MakeRef(3, 1))
	tbl.EnsureOutref(ids.MakeRef(2, 9))
	tbl.EnsureOutref(ids.MakeRef(2, 4))
	outs := tbl.Outrefs()
	if len(outs) != 3 || outs[0].Target != ids.MakeRef(2, 4) ||
		outs[1].Target != ids.MakeRef(2, 9) || outs[2].Target != ids.MakeRef(3, 1) {
		t.Fatalf("Outrefs order wrong")
	}
	if tbl.NumInrefs() != 3 || tbl.NumOutrefs() != 3 {
		t.Fatalf("counts wrong: %d inrefs, %d outrefs", tbl.NumInrefs(), tbl.NumOutrefs())
	}
}

func TestSourceSitesSorted(t *testing.T) {
	tbl := NewTable(1, testT2)
	tbl.AddSource(5, 4)
	tbl.AddSource(5, 2)
	tbl.AddSource(5, 3)
	in, _ := tbl.Inref(5)
	got := in.SourceSites()
	want := []ids.SiteID{2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SourceSites = %v, want %v", got, want)
		}
	}
}

func TestInrefDistanceNeverBelowMinSourceProperty(t *testing.T) {
	// Property: Distance() equals the minimum over source distances for
	// arbitrary source sets.
	f := func(dists []uint16) bool {
		in := &Inref{Obj: 1, Sources: make(map[ids.SiteID]int)}
		min := DistInfinity
		for i, d := range dists {
			v := int(d)
			in.Sources[ids.SiteID(i+1)] = v
			if v < min {
				min = v
			}
		}
		return in.Distance() == min
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSourceIndexTracksSourceLists drives random source-list changes
// through every mutator that maintains the source index and
// checks after each one that EachSourceOf visits exactly the inrefs whose
// source lists name the site.
func TestSourceIndexTracksSourceLists(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tbl := NewTable(1, 7)
	for step := 0; step < 2000; step++ {
		obj := ids.ObjID(1 + rng.Intn(40))
		src := ids.SiteID(2 + rng.Intn(4))
		switch rng.Intn(4) {
		case 0:
			tbl.AddSource(obj, src)
		case 1:
			tbl.SetSource(obj, src, rng.Intn(9))
		case 2:
			tbl.RemoveSource(obj, src)
		default:
			if rng.Intn(4) == 0 {
				tbl.RemoveInref(obj)
			}
		}
		for s := ids.SiteID(2); s < 6; s++ {
			want := map[ids.ObjID]bool{}
			for _, in := range tbl.Inrefs() {
				if _, ok := in.Sources[s]; ok {
					want[in.Obj] = true
				}
			}
			if n := tbl.SourceCount(s); n != len(want) {
				t.Fatalf("step %d: SourceCount(%v) = %d, want %d", step, s, n, len(want))
			}
			got := map[ids.ObjID]bool{}
			tbl.EachSourceOf(s, func(obj ids.ObjID) {
				if got[obj] {
					t.Fatalf("step %d: EachSourceOf(%v) visited %v twice", step, s, obj)
				}
				got[obj] = true
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: EachSourceOf(%v) = %v, want %v", step, s, got, want)
			}
		}
	}
}

// TestUpdateSourceDistancesCleanRule checks the batched distance update
// against the definition: an inref is reported exactly when it was
// suspected before its change and clean after it, and the count of listed
// inrefs is exact.
func TestUpdateSourceDistancesCleanRule(t *testing.T) {
	const threshold = 3
	rng := rand.New(rand.NewSource(2))
	tbl := NewTable(1, 7)
	for step := 0; step < 500; step++ {
		for i := 0; i < 5; i++ {
			obj := ids.ObjID(1 + rng.Intn(20))
			tbl.SetSource(obj, ids.SiteID(2+rng.Intn(3)), rng.Intn(8))
			if in, ok := tbl.Inref(obj); ok {
				in.Barrier = rng.Intn(8) == 0
				if rng.Intn(16) == 0 {
					tbl.FlagGarbage(obj)
				}
			}
		}
		src := ids.SiteID(2 + rng.Intn(3))
		type change struct {
			obj  ids.ObjID
			dist int
		}
		var batch []change
		seen := map[ids.ObjID]bool{}
		for i := 0; i < 8; i++ {
			obj := ids.ObjID(1 + rng.Intn(20))
			if !seen[obj] {
				seen[obj] = true
				batch = append(batch, change{obj, rng.Intn(8)})
			}
		}
		want := map[ids.ObjID]bool{}
		for _, c := range batch {
			in, ok := tbl.Inref(c.obj)
			if !ok {
				continue
			}
			if _, listed := in.Sources[src]; !listed {
				continue
			}
			before := in.IsClean(threshold)
			saved := in.Sources[src]
			in.Sources[src] = c.dist
			if !before && in.IsClean(threshold) {
				want[c.obj] = true
			}
			in.Sources[src] = saved
		}
		got := map[ids.ObjID]bool{}
		wantListed := 0
		for _, c := range batch {
			if in, ok := tbl.Inref(c.obj); ok {
				if _, listed := in.Sources[src]; listed {
					wantListed++
				}
			}
		}
		listed, cleaned := tbl.UpdateSourceDistances(src, len(batch), func(i int) (ids.ObjID, int) {
			return batch[i].obj, batch[i].dist
		}, threshold)
		for _, obj := range cleaned {
			got[obj] = true
		}
		if !reflect.DeepEqual(got, want) || listed != wantListed {
			t.Fatalf("step %d: cleaned %v listing %d, want %v listing %d", step, got, listed, want, wantListed)
		}
		for _, c := range batch {
			if in, ok := tbl.Inref(c.obj); ok {
				if d, listed := in.Sources[src]; listed && d != c.dist {
					t.Fatalf("step %d: %v's distance from %v is %d, want %d", step, c.obj, src, d, c.dist)
				}
			}
		}
	}
}
