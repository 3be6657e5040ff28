package heap

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"backtrace/internal/ids"
)

// The tests in this file keep the names they had when the store was split
// into hash partitions; their subjects are now the one directory.

// TestShardOfPartition checks the id round trip over the one directory:
// iteration visits every object once, in ascending id order, and each id
// leads back to its page and slot.
func TestShardOfPartition(t *testing.T) {
	h := New(1)
	var all []ids.ObjID
	for i := 0; i < 3*PageSlots; i++ {
		all = append(all, h.Alloc().Obj)
	}
	// Empty page 1: the directory keeps a hole there.
	const hole = 1
	all = slices.DeleteFunc(all, func(obj ids.ObjID) bool {
		if obj>>PageBits == hole {
			h.Delete(obj)
			return true
		}
		return false
	})

	var seen []ids.ObjID
	base, n := h.PageSpan()
	h.EachID(func(obj ids.ObjID) {
		pn := int(obj >> PageBits)
		if pn < base || pn >= base+n || !h.HasPage(pn) {
			t.Fatalf("object %v iterated, but its page %d is not in the directory [%d, %d)", obj, pn, base, base+n)
		}
		if _, ok := h.SlotFields(obj); !ok {
			t.Fatalf("object %v iterated, but SlotFields does not find it", obj)
		}
		seen = append(seen, obj)
	})
	if !slices.Equal(seen, all) {
		t.Fatalf("iteration visited %v, want %v", seen, all)
	}
	if h.HasPage(hole) {
		t.Fatalf("emptied page %d is still held", hole)
	}
	if h.Len() != len(all) {
		t.Fatalf("Len = %d, want %d", h.Len(), len(all))
	}
}

// TestShardedObjectsSorted checks the Objects() view stays sorted after
// deletions.
func TestShardedObjectsSorted(t *testing.T) {
	h := New(1)
	for i := 0; i < 25; i++ {
		h.Alloc()
	}
	h.Delete(7)
	h.Delete(12)
	objs := h.Objects()
	if !sort.SliceIsSorted(objs, func(i, j int) bool { return objs[i] < objs[j] }) {
		t.Fatalf("Objects() not sorted: %v", objs)
	}
	if len(objs) != 23 {
		t.Fatalf("Objects() has %d entries, want 23", len(objs))
	}
}

// TestFieldsOfMatchesGet checks the locked FieldsOf returns the same view
// as the lock-free SlotFields, as a copy.
func TestFieldsOfMatchesGet(t *testing.T) {
	h := New(1)
	a := h.AllocRoot()
	b := h.Alloc()
	if err := h.AddField(a.Obj, b); err != nil {
		t.Fatal(err)
	}
	if err := h.AddField(a.Obj, ids.Ref{Site: 2, Obj: 9}); err != nil {
		t.Fatal(err)
	}
	got, ok := h.FieldsOf(a.Obj)
	if !ok {
		t.Fatal("FieldsOf reported object missing")
	}
	want, _ := h.SlotFields(a.Obj)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FieldsOf = %v, SlotFields = %v", got, want)
	}
	if &got[0] == &want[0] {
		t.Fatal("FieldsOf returned the heap's own array")
	}
	if _, ok := h.FieldsOf(999); ok {
		t.Fatal("FieldsOf found a nonexistent object")
	}
}

// TestShardedSnapshotEquivalence checks that a view reproduces the live
// heap exactly, keeps doing so for the heap it was frozen from while the
// live heap changes, and that the next view matches the changed heap.
func TestShardedSnapshotEquivalence(t *testing.T) {
	h := New(1)
	root := h.AllocRoot()
	var prev ids.Ref
	for i := 0; i < 30; i++ {
		o := h.Alloc()
		if i%3 == 0 {
			mustAddField(t, h, root.Obj, o)
		} else if !prev.IsZero() {
			mustAddField(t, h, prev.Obj, o)
		}
		prev = o
	}
	h.AddAppRoot(ids.Ref{Site: 2, Obj: 5})
	old := h.Snapshot()
	sameState(t, "view", old, h)
	was := modelOf(old)

	mutated := h.Alloc()
	mustAddField(t, h, 1, mutated)
	h.Delete(9)
	h.AddAppRoot(mutated)
	checkAgainstModel(t, "old view", old, was)
	snap := h.Snapshot()
	if !snap.Contains(mutated.Obj) || snap.Contains(9) {
		t.Fatalf("the next view missed the allocation or the deletion")
	}
	sameState(t, "next view", snap, h)
}

// sameState fails unless got holds exactly want's objects, fields, roots
// and application roots.
func sameState(t *testing.T, ctx string, got, want *Heap) {
	t.Helper()
	if !reflect.DeepEqual(got.Objects(), want.Objects()) {
		t.Fatalf("%s: object set %v, want %v", ctx, got.Objects(), want.Objects())
	}
	for _, obj := range want.Objects() {
		wf, _ := want.FieldsOf(obj)
		gf, ok := got.FieldsOf(obj)
		if !ok || !reflect.DeepEqual(gf, wf) {
			t.Fatalf("%s: fields of %v are %v, want %v (ok=%v)", ctx, obj, gf, wf, ok)
		}
	}
	if !reflect.DeepEqual(got.PersistentRoots(), want.PersistentRoots()) || !reflect.DeepEqual(got.AppRoots(), want.AppRoots()) {
		t.Fatalf("%s: roots differ", ctx)
	}
}

func mustAddField(t *testing.T, h *Heap, obj ids.ObjID, target ids.Ref) {
	t.Helper()
	if err := h.AddField(obj, target); err != nil {
		t.Fatal(err)
	}
}

// TestMaxShardDirtyRatio checks the write barrier: a view copies no page,
// the first write after it copies exactly the written page (the view keeps
// the old one), and further writes to that page copy nothing more.
func TestMaxShardDirtyRatio(t *testing.T) {
	h := New(1)
	for i := 0; i < 2*PageSlots; i++ {
		h.Alloc()
	}
	v := h.Snapshot()
	if n := h.PagesCopied(); n != 0 {
		t.Fatalf("%d pages copied right after a view, want 0", n)
	}
	before := v.page(0)
	if err := h.AddField(4, ids.Ref{Site: 2, Obj: 1}); err != nil {
		t.Fatal(err)
	}
	if err := h.AddField(5, ids.Ref{Site: 2, Obj: 2}); err != nil {
		t.Fatal(err)
	}
	if n := h.PagesCopied(); n != 1 {
		t.Fatalf("%d pages copied after two writes to one page, want 1", n)
	}
	if v.page(0) != before || h.page(0) == before || h.page(1) != v.page(1) {
		t.Fatal("the write did not swap exactly the written page in the live directory")
	}
	if f, _ := v.SlotFields(4); len(f) != 0 {
		t.Fatalf("the view sees the write: fields %v", f)
	}
}
