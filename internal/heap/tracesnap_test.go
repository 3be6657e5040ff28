package heap

import (
	"math/rand"
	"slices"
	"testing"

	"backtrace/internal/ids"
)

// sameTracerView fails the test unless snap presents exactly the
// tracer-visible state of live: object set, per-object fields (in order),
// persistent roots, and application roots.
func sameTracerView(t *testing.T, live, snap *Heap) {
	t.Helper()
	liveObjs, snapObjs := live.Objects(), snap.Objects()
	if len(liveObjs) != len(snapObjs) {
		t.Fatalf("object count: live %d snap %d", len(liveObjs), len(snapObjs))
	}
	for i, obj := range liveObjs {
		if snapObjs[i] != obj {
			t.Fatalf("object set diverges at %d: live %v snap %v", i, obj, snapObjs[i])
		}
		lo, so := slotOf(live, obj), slotOf(snap, obj)
		if !slices.Equal(lo.fields, so.fields) || lo.size != so.size {
			t.Fatalf("obj %v: live %v (size %d) snap %v (size %d)", obj, lo.fields, lo.size, so.fields, so.size)
		}
		if len(lo.fields) > 0 && &lo.fields[0] == &so.fields[0] {
			t.Fatalf("obj %v: snapshot shares the live field array", obj)
		}
	}
	lp, sp := live.PersistentRoots(), snap.PersistentRoots()
	if len(lp) != len(sp) {
		t.Fatalf("persistent roots: live %v snap %v", lp, sp)
	}
	for i := range lp {
		if lp[i] != sp[i] {
			t.Fatalf("persistent roots: live %v snap %v", lp, sp)
		}
	}
	la, sa := live.AppRoots(), snap.AppRoots()
	if len(la) != len(sa) {
		t.Fatalf("app roots: live %v snap %v", la, sa)
	}
	for i := range la {
		if la[i] != sa[i] {
			t.Fatalf("app roots: live %v snap %v", la, sa)
		}
	}
	if live.NextID() != snap.NextID() {
		t.Fatalf("next id: live %v snap %v", live.NextID(), snap.NextID())
	}
}

// TestTraceSnapshotEquivalence drives a randomized mutation sequence and
// checks after every round that the patched shadow snapshot is
// indistinguishable from a fresh deep copy.
func TestTraceSnapshotEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := New(1)

		var objs []ids.Ref
		for i := 0; i < 5; i++ {
			objs = append(objs, h.AllocRoot())
		}

		var prev *Heap
		for round := 0; round < 12; round++ {
			for step := 0; step < 30; step++ {
				switch rng.Intn(8) {
				case 0:
					objs = append(objs, h.Alloc())
				case 1:
					src := objs[rng.Intn(len(objs))]
					dst := objs[rng.Intn(len(objs))]
					_ = h.AddField(src.Obj, dst)
				case 2:
					src := objs[rng.Intn(len(objs))]
					dst := objs[rng.Intn(len(objs))]
					_, _ = h.RemoveField(src.Obj, dst)
				case 3:
					// Remote reference into a field.
					src := objs[rng.Intn(len(objs))]
					remote := ids.Ref{Site: 2, Obj: ids.ObjID(rng.Intn(50) + 1)}
					_ = h.AddField(src.Obj, remote)
				case 4:
					r := objs[rng.Intn(len(objs))]
					if h.IsPersistentRoot(r.Obj) {
						h.UnmarkPersistentRoot(r.Obj)
					} else {
						_ = h.MarkPersistentRoot(r.Obj)
					}
				case 5:
					r := objs[rng.Intn(len(objs))]
					if rng.Intn(2) == 0 {
						h.AddAppRoot(r)
					} else {
						h.RemoveAppRoot(r)
					}
				case 6:
					remote := ids.Ref{Site: 3, Obj: ids.ObjID(rng.Intn(20) + 1)}
					if rng.Intn(2) == 0 {
						h.AddAppRoot(remote)
					} else {
						h.RemoveAppRoot(remote)
					}
				case 7:
					if len(objs) > 3 {
						i := rng.Intn(len(objs))
						h.Delete(objs[i].Obj)
						objs = append(objs[:i], objs[i+1:]...)
					}
				}
			}
			snap := h.TraceSnapshot()
			if round > 0 && snap != prev {
				t.Fatalf("seed %d round %d: snapshot not patched in place", seed, round)
			}
			prev = snap
			sameTracerView(t, h, snap)
		}
	}
}

// TestTraceSnapshotCancellingOps checks that operations undone before the
// snapshot leave it equal to the live heap, and that a field removed and
// added back — same multiset, new order — reaches the snapshot in the live
// order.
func TestTraceSnapshotCancellingOps(t *testing.T) {
	h := New(1)
	a := h.AllocRoot()
	b := h.Alloc()
	c := h.Alloc()
	for _, to := range []ids.Ref{b, c} {
		if err := h.AddField(a.Obj, to); err != nil {
			t.Fatal(err)
		}
	}
	h.TraceSnapshot()

	// Edge added then removed again.
	remote := ids.Ref{Site: 9, Obj: 4}
	if err := h.AddField(b.Obj, remote); err != nil {
		t.Fatal(err)
	}
	if _, err := h.RemoveField(b.Obj, remote); err != nil {
		t.Fatal(err)
	}
	// Variables taken then dropped, a persistent root toggled back, an
	// object allocated and deleted.
	h.AddAppRoot(b)
	h.RemoveAppRoot(b)
	h.AddAppRoot(remote)
	h.RemoveAppRoot(remote)
	if err := h.MarkPersistentRoot(b.Obj); err != nil {
		t.Fatal(err)
	}
	h.UnmarkPersistentRoot(b.Obj)
	gone := h.Alloc()
	h.Delete(gone.Obj)
	// a's fields go from [b c] to [c b].
	if _, err := h.RemoveField(a.Obj, b); err != nil {
		t.Fatal(err)
	}
	if err := h.AddField(a.Obj, b); err != nil {
		t.Fatal(err)
	}

	snap := h.TraceSnapshot()
	sameTracerView(t, h, snap)
	if snap.Contains(gone.Obj) {
		t.Fatal("object allocated and deleted between snapshots is in the snapshot")
	}
}

// TestTraceSnapshotReset checks that ResetTraceSnapshot makes the next
// snapshot a fresh deep copy.
func TestTraceSnapshotReset(t *testing.T) {
	h := New(1)
	h.AllocRoot()
	old := h.TraceSnapshot()
	h.Alloc()
	h.ResetTraceSnapshot()
	snap := h.TraceSnapshot()
	if snap == old {
		t.Fatal("snapshot after reset reused the old shadow copy")
	}
	sameTracerView(t, h, snap)
}
