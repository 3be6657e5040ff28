package refs

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
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

// cutModel is the tables as a plain model: each inref's source distances
// and garbage flag, and the set of outref targets.
type cutModel struct {
	inrefs  map[ids.ObjID]*modelInref
	outrefs map[ids.Ref]bool
}

type modelInref struct {
	sources map[ids.SiteID]int
	garbage bool
}

func (m *cutModel) setDistance(obj ids.ObjID, src ids.SiteID, dist int) {
	if in, ok := m.inrefs[obj]; ok {
		if _, ok := in.sources[src]; ok {
			in.sources[src] = dist
		}
	}
}

// freeze returns the rows a cut taken now must hold: every inref not
// flagged garbage with its smallest source distance, and every outref
// target, each ascending.
func (m *cutModel) freeze() Cut {
	c := Cut{Roots: []Root{}, Outrefs: []ids.Ref{}}
	for obj, in := range m.inrefs {
		if in.garbage {
			continue
		}
		d := DistInfinity
		for _, sd := range in.sources {
			d = min(d, sd)
		}
		c.Roots = append(c.Roots, Root{Obj: obj, Distance: d})
	}
	slices.SortFunc(c.Roots, func(a, b Root) int { return cmp.Compare(a.Obj, b.Obj) })
	for r := range m.outrefs {
		c.Outrefs = append(c.Outrefs, r)
	}
	slices.SortFunc(c.Outrefs, ids.Ref.Compare)
	return c
}

// TestCutMatchesModel drives random table mutations of every kind, applied
// to the table and to a model alike. Each round takes a cut, which must
// hold the rows the model freezes at that moment; the round's mutations
// then run, and the cut must still hold exactly those rows: no inref
// flagged garbage, created, removed or re-distanced since, and no outref
// created or removed since, may show through.
func TestCutMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tbl := NewTable(1, 7)
		m := &cutModel{inrefs: map[ids.ObjID]*modelInref{}, outrefs: map[ids.Ref]bool{}}
		for round := 0; round < 12; round++ {
			cut, want := tbl.Cut(), m.freeze()
			if !reflect.DeepEqual(cut, want) {
				t.Fatalf("seed %d round %d: cut\n%v\nwant\n%v", seed, round, cut, want)
			}
			for step := 0; step < 25; step++ {
				obj := ids.ObjID(rng.Intn(12) + 1)
				src := ids.SiteID(rng.Intn(3) + 2)
				switch rng.Intn(8) {
				case 0:
					tbl.AddSource(obj, src)
					in, ok := m.inrefs[obj]
					if !ok {
						in = &modelInref{sources: map[ids.SiteID]int{}}
						m.inrefs[obj] = in
					}
					if _, ok := in.sources[src]; !ok {
						in.sources[src] = 1
					}
				case 1:
					d := rng.Intn(10)
					tbl.SetSourceDistance(obj, src, d)
					m.setDistance(obj, src, d)
				case 2:
					objs := []ids.ObjID{obj, ids.ObjID(rng.Intn(12) + 1)}
					dists := []int{rng.Intn(10), rng.Intn(10)}
					tbl.UpdateSourceDistances(src, len(objs), func(i int) (ids.ObjID, int) { return objs[i], dists[i] }, 3)
					for i := range objs {
						m.setDistance(objs[i], src, dists[i])
					}
				case 3:
					tbl.RemoveSource(obj, src)
					if in, ok := m.inrefs[obj]; ok {
						delete(in.sources, src)
						if len(in.sources) == 0 {
							delete(m.inrefs, obj)
						}
					}
				case 4:
					tbl.RemoveInref(obj)
					delete(m.inrefs, obj)
				case 5:
					tbl.FlagGarbage(obj)
					if in, ok := m.inrefs[obj]; ok {
						in.garbage = true
					}
				case 6:
					tbl.EnsureOutref(ids.Ref{Site: src, Obj: obj})
					m.outrefs[ids.Ref{Site: src, Obj: obj}] = true
				case 7:
					tbl.RemoveOutref(ids.Ref{Site: src, Obj: obj})
					delete(m.outrefs, ids.Ref{Site: src, Obj: obj})
				}
			}
			if !reflect.DeepEqual(cut, want) {
				t.Fatalf("seed %d round %d: the table's mutations reached the cut taken before them:\n%v\nwant\n%v", seed, round, cut, want)
			}
			for _, r := range want.Outrefs {
				if !cut.HasOutref(r) {
					t.Fatalf("seed %d round %d: HasOutref(%v) false for a listed outref", seed, round, r)
				}
			}
			for r := range m.outrefs {
				if !slices.Contains(want.Outrefs, r) && cut.HasOutref(r) {
					t.Fatalf("seed %d round %d: HasOutref(%v) true for an outref created after the cut", seed, round, r)
				}
			}
		}
	}
}
