package heap

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"backtrace/internal/ids"
)

// sameTracerView fails the test unless snap presents exactly the
// tracer-visible state of live: object set, per-object fields (in order),
// persistent roots, and application roots. A view shares the field arrays
// of every page the live heap has not written since.
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

// modelOf deep-copies the state h presents into a model.
func modelOf(h *Heap) *model {
	m := &model{objs: map[ids.ObjID]modelObj{}, appRoots: maps.Clone(h.appRoots), next: h.NextID()}
	h.EachObject(func(id ids.ObjID, fields []ids.Ref, size int, root bool) {
		m.objs[id] = modelObj{fields: slices.Clone(fields), size: size, root: root}
	})
	return m
}

// TestViewEquivalence drives a randomized mutation sequence and
// checks after every round that a fresh view is indistinguishable from the
// live heap, and that the views of the last three rounds still present the
// heap as it was when each was frozen.
func TestViewEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := New(1)

		var objs []ids.Ref
		for i := 0; i < 5; i++ {
			objs = append(objs, h.AllocRoot())
		}

		var views []frozen
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
			checkViews(t, fmt.Sprintf("seed %d round %d", seed, round), views)
			snap := h.Snapshot()
			sameTracerView(t, h, snap)
			views = append(views, frozen{view: snap, m: modelOf(h), at: fmt.Sprintf("round %d", round)})
			if len(views) > 3 {
				views = views[1:]
			}
		}
	}
}

// TestViewCancellingOps checks that operations undone between two
// views leave the second equal to the live heap and the first unchanged,
// and that a field removed and added back — same multiset, new order —
// reaches the second view in the live order.
func TestViewCancellingOps(t *testing.T) {
	h := New(1)
	a := h.AllocRoot()
	b := h.Alloc()
	c := h.Alloc()
	for _, to := range []ids.Ref{b, c} {
		if err := h.AddField(a.Obj, to); err != nil {
			t.Fatal(err)
		}
	}
	first := h.Snapshot()
	was := modelOf(h)

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

	snap := h.Snapshot()
	sameTracerView(t, h, snap)
	checkAgainstModel(t, "first view", first, was)
	if snap.Contains(gone.Obj) {
		t.Fatal("object allocated and deleted between views is in the view")
	}
	if f, _ := snap.SlotFields(a.Obj); !slices.Equal(f, []ids.Ref{c, b}) {
		t.Fatalf("a's fields in the second view are %v, want [%v %v]", f, c, b)
	}
}

// TestAbandonedViewNeedsNoReset checks that an abandoned view needs no reset: the
// next view after one that was dropped unread presents the live heap and
// shares every page the live heap has not written since.
func TestAbandonedViewNeedsNoReset(t *testing.T) {
	h := New(1)
	h.AllocRoot()
	for i := 0; i < PageSlots; i++ {
		h.Alloc()
	}
	_ = h.Snapshot() // abandoned
	h.Alloc()
	if err := h.AddField(1, ids.Ref{Site: 2, Obj: 1}); err != nil {
		t.Fatal(err)
	}
	snap := h.Snapshot()
	sameTracerView(t, h, snap)
	base, n := h.PageSpan()
	for pn := base; pn < base+n; pn++ {
		if snap.page(pn) != h.page(pn) {
			t.Fatalf("the view does not share page %d with the live heap", pn)
		}
	}
}

// TestSnapshotIdleCopiesNoPage checks that a view of an idle heap copies
// no page: its allocations do not grow with the heap's pages, and the
// write barrier clones none.
func TestSnapshotIdleCopiesNoPage(t *testing.T) {
	allocs := func(pages int) float64 {
		h := New(1)
		h.AllocRoot()
		h.AddAppRoot(ids.Ref{Site: 2, Obj: 1})
		for h.Len() < pages*PageSlots {
			h.Alloc()
		}
		n := testing.AllocsPerRun(100, func() { _ = h.Snapshot() })
		if c := h.PagesCopied(); c != 0 {
			t.Fatalf("%d pages: idle views copied %d pages", pages, c)
		}
		return n
	}
	small, large := allocs(2), allocs(64)
	if large != small || large >= 64 {
		t.Fatalf("a view allocates %v times over 2 pages and %v over 64, want the same few", small, large)
	}
}

// TestSnapshotWritesCopyPages checks that writes to k distinct pages after
// a view copy exactly k pages, however many writes each page takes, and
// that the live heap and the view then share every other page.
func TestSnapshotWritesCopyPages(t *testing.T) {
	const pages = 16
	h := New(1)
	for h.Len() < pages*PageSlots {
		h.Alloc()
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k <= pages; k += 5 {
		v := h.Snapshot()
		before := h.PagesCopied()
		written := rng.Perm(pages)[:k]
		for _, pn := range written {
			for w := 0; w < 3; w++ {
				obj := ids.ObjID(pn<<PageBits + rng.Intn(PageSlots))
				if obj == ids.NoObj {
					obj++
				}
				if err := h.AddField(obj, ids.Ref{Site: 2, Obj: obj}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := h.PagesCopied() - before; got != k {
			t.Fatalf("writes to %d pages copied %d", k, got)
		}
		for pn := 0; pn < pages; pn++ {
			if shared := v.page(pn) == h.page(pn); shared == slices.Contains(written, pn) {
				t.Fatalf("k=%d: page %d shared=%v after writes to %v", k, pn, shared, written)
			}
		}
	}
}
