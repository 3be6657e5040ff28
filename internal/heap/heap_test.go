package heap

import (
	"testing"
	"testing/quick"

	"backtrace/internal/ids"
)

// slotOf returns the slot holding obj, or nil.
func slotOf(h *Heap, obj ids.ObjID) *slot { return h.get(obj) }

func TestAllocAssignsUniqueIDs(t *testing.T) {
	h := New(1)
	seen := make(map[ids.ObjID]bool)
	for i := 0; i < 100; i++ {
		r := h.Alloc()
		if r.Site != 1 {
			t.Fatalf("Alloc returned site %v, want S1", r.Site)
		}
		if seen[r.Obj] {
			t.Fatalf("duplicate ObjID %v", r.Obj)
		}
		seen[r.Obj] = true
	}
	if h.Len() != 100 {
		t.Fatalf("Len = %d, want 100", h.Len())
	}
}

func TestAllocRootAndRootMarks(t *testing.T) {
	h := New(1)
	r := h.AllocRoot()
	if !h.IsPersistentRoot(r.Obj) {
		t.Fatal("AllocRoot object not a persistent root")
	}
	o := h.Alloc()
	if h.IsPersistentRoot(o.Obj) {
		t.Fatal("plain Alloc object is a persistent root")
	}
	if err := h.MarkPersistentRoot(o.Obj); err != nil {
		t.Fatal(err)
	}
	if !h.IsPersistentRoot(o.Obj) {
		t.Fatal("MarkPersistentRoot did not take effect")
	}
	h.UnmarkPersistentRoot(o.Obj)
	if h.IsPersistentRoot(o.Obj) {
		t.Fatal("UnmarkPersistentRoot did not take effect")
	}
	roots := h.PersistentRoots()
	if len(roots) != 1 || roots[0] != r.Obj {
		t.Fatalf("PersistentRoots = %v, want [%v]", roots, r.Obj)
	}
}

func TestMarkPersistentRootMissingObject(t *testing.T) {
	h := New(1)
	if err := h.MarkPersistentRoot(99); err == nil {
		t.Fatal("expected error marking missing object as root")
	}
}

func TestAddRemoveField(t *testing.T) {
	h := New(1)
	a := h.Alloc()
	b := h.Alloc()
	remote := ids.MakeRef(2, 7)

	if err := h.AddField(a.Obj, b); err != nil {
		t.Fatal(err)
	}
	if err := h.AddField(a.Obj, remote); err != nil {
		t.Fatal(err)
	}
	if err := h.AddField(a.Obj, b); err != nil {
		t.Fatal(err)
	}
	fields, _ := h.FieldsOf(a.Obj)
	if len(fields) != 3 {
		t.Fatalf("fields = %v, want 3", fields)
	}

	removed, err := h.RemoveField(a.Obj, b)
	if err != nil || !removed {
		t.Fatalf("RemoveField = %v, %v", removed, err)
	}
	fields, _ = h.FieldsOf(a.Obj)
	if len(fields) != 2 {
		t.Fatalf("fields after remove = %v, want 2 (only first occurrence removed)", fields)
	}
	if fields[0] != remote || fields[1] != b {
		t.Fatalf("fields after remove = %v", fields)
	}

	removed, err = h.RemoveField(a.Obj, ids.MakeRef(9, 9))
	if err != nil || removed {
		t.Fatalf("RemoveField of absent target = %v, %v; want false, nil", removed, err)
	}
}

func TestFieldOpsOnMissingObject(t *testing.T) {
	h := New(1)
	if err := h.AddField(5, ids.MakeRef(1, 1)); err == nil {
		t.Error("AddField on missing object: no error")
	}
	if _, err := h.RemoveField(5, ids.MakeRef(1, 1)); err == nil {
		t.Error("RemoveField on missing object: no error")
	}
	if err := h.ClearFields(5); err == nil {
		t.Error("ClearFields on missing object: no error")
	}
}

func TestDeleteRemovesObjectAndRootStatus(t *testing.T) {
	h := New(1)
	r := h.AllocRoot()
	h.Delete(r.Obj)
	if h.Contains(r.Obj) {
		t.Fatal("deleted object still present")
	}
	if h.IsPersistentRoot(r.Obj) {
		t.Fatal("deleted object still a persistent root")
	}
}

func TestFieldsReturnsCopy(t *testing.T) {
	h := New(1)
	a := h.Alloc()
	b := h.Alloc()
	if err := h.AddField(a.Obj, b); err != nil {
		t.Fatal(err)
	}
	fields, _ := h.FieldsOf(a.Obj)
	fields[0] = ids.MakeRef(9, 9)
	if slotOf(h, a.Obj).fields[0] != b {
		t.Fatal("FieldsOf exposed internal storage")
	}
}

func TestAppRootCounting(t *testing.T) {
	h := New(1)
	r := ids.MakeRef(2, 3)
	if h.RemoveAppRoot(r) {
		t.Fatal("RemoveAppRoot on empty heap returned true")
	}
	h.AddAppRoot(r)
	h.AddAppRoot(r)
	if !h.HoldsAppRoot(r) {
		t.Fatal("HoldsAppRoot false after AddAppRoot")
	}
	if !h.RemoveAppRoot(r) || !h.HoldsAppRoot(r) {
		t.Fatal("first release should leave one hold")
	}
	if !h.RemoveAppRoot(r) || h.HoldsAppRoot(r) {
		t.Fatal("second release should clear the hold")
	}
	if got := h.AppRoots(); len(got) != 0 {
		t.Fatalf("AppRoots = %v, want empty", got)
	}
}

func TestLocalReachable(t *testing.T) {
	// a -> b -> c, d isolated, b -> remote (must not be followed).
	h := New(1)
	a := h.Alloc()
	b := h.Alloc()
	c := h.Alloc()
	d := h.Alloc()
	_ = d
	if err := h.AddField(a.Obj, b); err != nil {
		t.Fatal(err)
	}
	if err := h.AddField(b.Obj, c); err != nil {
		t.Fatal(err)
	}
	if err := h.AddField(b.Obj, ids.MakeRef(2, 1)); err != nil {
		t.Fatal(err)
	}

	got := h.LocalReachable([]ids.Ref{a})
	if len(got) != 3 {
		t.Fatalf("reachable set size %d, want 3: %v", len(got), got)
	}
	for _, want := range []ids.ObjID{a.Obj, b.Obj, c.Obj} {
		if _, ok := got[want]; !ok {
			t.Errorf("object %v missing from reachable set", want)
		}
	}
}

func TestLocalReachableCycle(t *testing.T) {
	h := New(1)
	a := h.Alloc()
	b := h.Alloc()
	if err := h.AddField(a.Obj, b); err != nil {
		t.Fatal(err)
	}
	if err := h.AddField(b.Obj, a); err != nil {
		t.Fatal(err)
	}
	got := h.LocalReachable([]ids.Ref{a})
	if len(got) != 2 {
		t.Fatalf("cycle reachable size %d, want 2", len(got))
	}
}

func TestLocalReachableIgnoresForeignStarts(t *testing.T) {
	h := New(1)
	h.Alloc()
	got := h.LocalReachable([]ids.Ref{ids.MakeRef(2, 1)})
	if len(got) != 0 {
		t.Fatalf("foreign start produced reachable set %v", got)
	}
}

func TestRemoteRefsFrom(t *testing.T) {
	h := New(1)
	a := h.Alloc()
	b := h.Alloc()
	r1 := ids.MakeRef(2, 1)
	r2 := ids.MakeRef(3, 5)
	if err := h.AddField(a.Obj, r1); err != nil {
		t.Fatal(err)
	}
	if err := h.AddField(a.Obj, b); err != nil {
		t.Fatal(err)
	}
	if err := h.AddField(b.Obj, r2); err != nil {
		t.Fatal(err)
	}
	if err := h.AddField(b.Obj, r1); err != nil { // duplicate remote
		t.Fatal(err)
	}

	objs := map[ids.ObjID]struct{}{a.Obj: {}, b.Obj: {}}
	got := h.RemoteRefsFrom(objs)
	if len(got) != 2 || got[0] != r1 || got[1] != r2 {
		t.Fatalf("RemoteRefsFrom = %v, want [%v %v]", got, r1, r2)
	}
}

func TestAdopt(t *testing.T) {
	h := New(1)
	fields := []ids.Ref{ids.MakeRef(2, 1), ids.MakeRef(1, 1)}
	r := h.Adopt(fields, 128)
	o := slotOf(h, r.Obj)
	if o == nil {
		t.Fatal("adopted object missing")
	}
	if o.size != 128 || len(o.fields) != 2 {
		t.Fatalf("adopted object wrong: size=%d fields=%d", o.size, len(o.fields))
	}
	fields[0] = ids.MakeRef(9, 9)
	if o.fields[0] == fields[0] {
		t.Fatal("Adopt aliased caller's slice")
	}
}

func TestReachabilityMonotoneProperty(t *testing.T) {
	// Property: adding a field can only grow the reachable set.
	f := func(edges []uint8) bool {
		h := New(1)
		const n = 10
		refs := make([]ids.Ref, n)
		for i := range refs {
			refs[i] = h.Alloc()
		}
		for i := 0; i+1 < len(edges); i += 2 {
			from := refs[int(edges[i])%n]
			to := refs[int(edges[i+1])%n]
			if err := h.AddField(from.Obj, to); err != nil {
				return false
			}
		}
		before := h.LocalReachable([]ids.Ref{refs[0]})
		if err := h.AddField(refs[0].Obj, refs[n-1]); err != nil {
			return false
		}
		after := h.LocalReachable([]ids.Ref{refs[0]})
		if len(after) < len(before) {
			return false
		}
		for o := range before {
			if _, ok := after[o]; !ok {
				return false
			}
		}
		_, ok := after[refs[n-1].Obj]
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
