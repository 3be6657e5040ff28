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

// TestShardedSnapshotEquivalence checks that the deep copy reproduces the
// live heap exactly and that the patched trace snapshot matches a fresh
// deep copy.
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
	sameState(t, "deep copy", h.Snapshot(), h)

	h.TraceSnapshot()
	mutated := h.Alloc()
	mustAddField(t, h, 1, mutated)
	h.Delete(9)
	snap := h.TraceSnapshot()
	if !snap.Contains(mutated.Obj) || snap.Contains(9) {
		t.Fatalf("patched snapshot missed the allocation or the deletion")
	}
	sameState(t, "patched snapshot", snap, h.Snapshot())
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

// TestMaxShardDirtyRatio checks the write barrier's dirty set: empty right
// after a snapshot, and naming exactly the mutated object after one
// mutation.
func TestMaxShardDirtyRatio(t *testing.T) {
	h := New(1)
	for i := 0; i < 16; i++ {
		h.Alloc()
	}
	h.TraceSnapshot()
	if n := len(h.dirtyObjs) + len(h.dirtyPersist) + len(h.dirtyAppRoots); n != 0 {
		t.Fatalf("%d dirty entries right after snapshot, want 0", n)
	}
	if err := h.AddField(4, ids.Ref{Site: 2, Obj: 1}); err != nil {
		t.Fatal(err)
	}
	if want := map[ids.ObjID]struct{}{4: {}}; !reflect.DeepEqual(h.dirtyObjs, want) {
		t.Fatalf("dirty set %v after one mutation, want %v", h.dirtyObjs, want)
	}
}
