package refs

import (
	"slices"
	"testing"

	"backtrace/internal/ids"
)

// TestInrefsCacheInvalidation is the regression test for the sorted
// cache: distance and flag updates keep it, and only a membership change
// (insert or remove) makes the next Inrefs() call re-sort.
func TestInrefsCacheInvalidation(t *testing.T) {
	tbl := NewTable(1, 8)
	for obj := ids.ObjID(1); obj <= 8; obj++ {
		tbl.AddSource(obj, 2)
	}
	tbl.Inrefs()
	if !tbl.in.sortedValid {
		t.Fatal("Inrefs left the cache invalid")
	}

	// Non-membership mutations must not invalidate the sorted order.
	tbl.SetSourceDistance(3, 2, 7)
	tbl.AddSource(3, 4)
	tbl.FlagGarbage(5)
	if !tbl.in.sortedValid {
		t.Fatal("a distance, source or flag update invalidated the sorted cache")
	}

	for _, change := range []struct {
		name  string
		apply func()
		want  []ids.ObjID
	}{
		{"insert", func() { tbl.AddSource(9, 2) }, []ids.ObjID{1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{"remove", func() { tbl.RemoveInref(6) }, []ids.ObjID{1, 2, 3, 4, 5, 7, 8, 9}},
		{"last source removed", func() { tbl.RemoveSource(1, 2) }, []ids.ObjID{2, 3, 4, 5, 7, 8, 9}},
	} {
		change.apply()
		if tbl.in.sortedValid {
			t.Fatalf("%s kept the sorted cache", change.name)
		}
		var got []ids.ObjID
		for _, in := range tbl.Inrefs() {
			got = append(got, in.Obj)
		}
		if !slices.Equal(got, change.want) {
			t.Fatalf("after %s: Inrefs = %v, want %v", change.name, got, change.want)
		}
	}
}

// TestInrefsSortedAnyOrder checks that Inrefs() comes back strictly sorted
// whatever order the inrefs were inserted in.
func TestInrefsSortedAnyOrder(t *testing.T) {
	tbl := NewTable(1, 8)
	inserted := []ids.ObjID{17, 3, 25, 4, 11, 2, 9, 30, 1}
	for _, obj := range inserted {
		tbl.AddSource(obj, 2)
	}
	var got []ids.ObjID
	for _, in := range tbl.Inrefs() {
		got = append(got, in.Obj)
	}
	want := slices.Clone(inserted)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("Inrefs = %v, want %v", got, want)
	}
}
