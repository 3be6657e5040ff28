package heap

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"backtrace/internal/ids"
)

// model is the plain-map heap the paged store must be indistinguishable
// from.
type model struct {
	objs     map[ids.ObjID]modelObj
	appRoots map[ids.Ref]int
	next     ids.ObjID
	// deleted lists the ids deleted and not reinstalled.
	deleted []ids.ObjID
}

type modelObj struct {
	fields []ids.Ref
	size   int
	root   bool
}

// checkAgainstModel fails unless h presents exactly m's state, through
// every read path, and its pages are well formed: every page holds an
// object, page and heap counts match their live slots, and the directory
// neither starts nor ends with a hole.
func checkAgainstModel(t *testing.T, ctx string, h *Heap, m *model) {
	t.Helper()
	want := make([]ids.ObjID, 0, len(m.objs))
	var roots []ids.ObjID
	for id, o := range m.objs {
		want = append(want, id)
		if o.root {
			roots = append(roots, id)
		}
	}
	slices.Sort(want)
	slices.Sort(roots)
	if h.Len() != len(want) {
		t.Fatalf("%s: Len %d, want %d", ctx, h.Len(), len(want))
	}
	i := 0
	h.EachObject(func(id ids.ObjID, fields []ids.Ref, size int, root bool) {
		if i >= len(want) || id != want[i] {
			t.Fatalf("%s: EachObject visits %v at position %d, want %v", ctx, id, i, want)
		}
		o := m.objs[id]
		if !slices.Equal(fields, o.fields) || size != o.size || root != o.root {
			t.Fatalf("%s: object %v is (%v, %d, %v), want (%v, %d, %v)", ctx, id, fields, size, root, o.fields, o.size, o.root)
		}
		if got, ok := h.FieldsOf(id); !ok || !slices.Equal(got, o.fields) {
			t.Fatalf("%s: FieldsOf(%v) = %v, %v", ctx, id, got, ok)
		}
		if got, ok := h.SlotFields(id); !ok || !slices.Equal(got, o.fields) {
			t.Fatalf("%s: SlotFields(%v) = %v, %v", ctx, id, got, ok)
		}
		i++
	})
	if i != len(want) {
		t.Fatalf("%s: EachObject visited %d objects, want %d", ctx, i, len(want))
	}
	if got := h.PersistentRoots(); !slices.Equal(got, roots) {
		t.Fatalf("%s: PersistentRoots %v, want %v", ctx, got, roots)
	}
	var apps []ids.Ref
	for r, n := range m.appRoots {
		if n > 0 {
			apps = append(apps, r)
		}
		if h.HoldsAppRoot(r) != (n > 0) {
			t.Fatalf("%s: HoldsAppRoot(%v) disagrees with %d holds", ctx, r, n)
		}
	}
	slices.SortFunc(apps, func(a, b ids.Ref) int {
		if a.Less(b) {
			return -1
		}
		if b.Less(a) {
			return 1
		}
		return 0
	})
	if got := h.AppRoots(); !slices.Equal(got, apps) {
		t.Fatalf("%s: AppRoots %v, want %v", ctx, got, apps)
	}
	if h.NextID() != m.next {
		t.Fatalf("%s: NextID %v, want %v", ctx, h.NextID(), m.next)
	}
	for _, id := range m.deleted {
		if h.Contains(id) {
			t.Fatalf("%s: heap contains deleted object %v", ctx, id)
		}
		if _, ok := h.SlotFields(id); ok {
			t.Fatalf("%s: SlotFields finds deleted object %v", ctx, id)
		}
	}
	if n := len(h.pages); n > 0 && (h.pages[0] == nil || h.pages[n-1] == nil) {
		t.Fatalf("%s: the directory has a hole at an end", ctx)
	}
	count := 0
	for j, p := range h.pages {
		if p == nil {
			continue
		}
		live := 0
		for k := range p.slots {
			if p.slots[k].live {
				live++
			} else if p.slots[k].fields != nil {
				t.Fatalf("%s: page %d slot %d is empty but keeps fields", ctx, h.base+j, k)
			}
		}
		if live == 0 || live != p.n {
			t.Fatalf("%s: page %d counts %d objects, holds %d", ctx, h.base+j, p.n, live)
		}
		count += live
	}
	if count != h.count {
		t.Fatalf("%s: the heap counts %d objects, pages hold %d", ctx, h.count, count)
	}
}

// checkShadow checks a TraceSnapshot against the model and that it shares
// no field array with the live heap.
func checkShadow(t *testing.T, ctx string, live, snap *Heap, m *model) {
	t.Helper()
	checkAgainstModel(t, ctx+" (snapshot)", snap, m)
	for id := range m.objs {
		lf, _ := live.SlotFields(id)
		sf, _ := snap.SlotFields(id)
		if len(lf) > 0 && &lf[0] == &sf[0] {
			t.Fatalf("%s: snapshot shares object %v's field array with the live heap", ctx, id)
		}
	}
}

// TestHeapModel drives the paged store with random allocation, field,
// deletion, reinstallation and root operations against a plain-map model,
// checking the live heap after every step and the trace snapshot after
// every TraceSnapshot. Each run then empties the directory's first page —
// the page is freed in the live heap and, at the next snapshot, in the
// shadow — and re-enters it with Install, as a checkpoint restore does.
//
// The subtests keep the names they had when the store was split into N
// hash partitions. shards=N now scales the id gaps the run opens with
// SetNextID — up to 2·N pages, the ids N partitions once shared — so a
// larger N leaves wider holes inside the one directory.
func TestHeapModel(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				runHeapModel(t, shards, seed)
			})
		}
	}
}

func runHeapModel(t *testing.T, shards int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	h := New(1)
	m := &model{objs: map[ids.ObjID]modelObj{}, appRoots: map[ids.Ref]int{}}

	pick := func() (ids.ObjID, bool) {
		if len(m.objs) == 0 {
			return 0, false
		}
		// Map order is random but not seeded; sort for replayability.
		keys := make([]ids.ObjID, 0, len(m.objs))
		for id := range m.objs {
			keys = append(keys, id)
		}
		slices.Sort(keys)
		return keys[rng.Intn(len(keys))], true
	}
	target := func() ids.Ref {
		if rng.Intn(4) == 0 {
			return ids.MakeRef(2, ids.ObjID(1+rng.Intn(40)))
		}
		return ids.MakeRef(1, ids.ObjID(1+rng.Intn(int(m.next)+1)))
	}
	alloc := func(r ids.Ref, o modelObj) {
		m.next = r.Obj
		m.objs[r.Obj] = o
	}
	step := func(op int) {
		switch op {
		case 0, 1, 2, 3:
			switch rng.Intn(4) {
			case 0:
				alloc(h.AllocRoot(), modelObj{size: DefaultObjectSize, root: true})
			case 1:
				size := rng.Intn(500)
				alloc(h.AllocSized(size), modelObj{size: size})
			case 2:
				fields := []ids.Ref{target(), target()}
				alloc(h.Adopt(fields, 128), modelObj{fields: slices.Clone(fields), size: 128})
				fields[0] = ids.Ref{} // Adopt must have copied
			default:
				alloc(h.Alloc(), modelObj{size: DefaultObjectSize})
			}
		case 4, 5, 6:
			if id, ok := pick(); ok {
				r := target()
				if err := h.AddField(id, r); err != nil {
					t.Fatal(err)
				}
				o := m.objs[id]
				o.fields = append(slices.Clone(o.fields), r)
				m.objs[id] = o
			}
		case 7:
			if id, ok := pick(); ok {
				o := m.objs[id]
				r := target()
				if len(o.fields) > 0 && rng.Intn(3) > 0 {
					r = o.fields[rng.Intn(len(o.fields))]
				}
				removed, err := h.RemoveField(id, r)
				if err != nil {
					t.Fatal(err)
				}
				if i := slices.Index(o.fields, r); (i >= 0) != removed {
					t.Fatalf("RemoveField(%v, %v) = %v, model fields %v", id, r, removed, o.fields)
				} else if removed {
					o.fields = slices.Delete(slices.Clone(o.fields), i, i+1)
					m.objs[id] = o
				}
			}
		case 8:
			if id, ok := pick(); ok {
				if err := h.ClearFields(id); err != nil {
					t.Fatal(err)
				}
				o := m.objs[id]
				o.fields = nil
				m.objs[id] = o
			}
		case 9, 10:
			if id, ok := pick(); ok {
				h.Delete(id)
				delete(m.objs, id)
				m.deleted = append(m.deleted, id)
			} else {
				h.Delete(ids.ObjID(rng.Intn(10) + 1)) // absent: a no-op
			}
		case 11:
			if len(m.deleted) > 0 {
				i := rng.Intn(len(m.deleted))
				id := m.deleted[i]
				m.deleted = slices.Delete(m.deleted, i, i+1)
				o := modelObj{fields: []ids.Ref{target()}, size: rng.Intn(100), root: rng.Intn(2) == 0}
				if err := h.Install(id, o.fields, o.size, o.root); err != nil {
					t.Fatal(err)
				}
				m.objs[id] = o
			}
		case 12:
			if id, ok := pick(); ok {
				if err := h.Install(id, nil, 1, false); err == nil {
					t.Fatalf("Install over live object %v succeeded", id)
				}
			}
		case 13:
			if id, ok := pick(); ok {
				o := m.objs[id]
				if o.root {
					h.UnmarkPersistentRoot(id)
				} else if err := h.MarkPersistentRoot(id); err != nil {
					t.Fatal(err)
				}
				o.root = !o.root
				m.objs[id] = o
			}
		case 14:
			r := target()
			if rng.Intn(2) == 0 {
				h.AddAppRoot(r)
				m.appRoots[r]++
			} else if h.RemoveAppRoot(r) != (m.appRoots[r] > 0) {
				t.Fatalf("RemoveAppRoot(%v) disagrees with %d holds", r, m.appRoots[r])
			} else if m.appRoots[r] > 0 {
				m.appRoots[r]--
			}
		case 15:
			// A restored checkpoint's high-water mark: ids skip ahead,
			// leaving holes in the page directory.
			if rng.Intn(4) == 0 {
				m.next += ids.ObjID(rng.Intn(2 * PageSlots * shards))
				h.SetNextID(m.next)
			}
		}
	}

	for i := 0; i < 1500; i++ {
		op := rng.Intn(17)
		if op == 16 {
			checkShadow(t, fmt.Sprintf("step %d", i), h, h.TraceSnapshot(), m)
			continue
		}
		step(op)
		checkAgainstModel(t, fmt.Sprintf("step %d op %d", i, op), h, m)
	}

	// Empty the directory's first page and snapshot: the page must be gone
	// from the live heap and the shadow. Then reinstall two of its ids.
	pn, n := h.PageSpan()
	if n == 0 {
		t.Fatal("setup: the heap holds no page")
	}
	var page []ids.ObjID
	for id := range m.objs {
		if int(id>>PageBits) == pn {
			page = append(page, id)
		}
	}
	slices.Sort(page)
	for _, id := range page {
		h.Delete(id)
		delete(m.objs, id)
		m.deleted = append(m.deleted, id)
	}
	checkAgainstModel(t, "page emptied", h, m)
	snap := h.TraceSnapshot()
	checkShadow(t, "page emptied", h, snap, m)
	if h.HasPage(pn) || snap.HasPage(pn) {
		t.Fatal("an emptied page was not freed")
	}
	for _, id := range slices.Compact([]ids.ObjID{page[0], page[len(page)-1]}) {
		o := modelObj{fields: []ids.Ref{ids.MakeRef(1, id)}, size: 7}
		if err := h.Install(id, o.fields, o.size, false); err != nil {
			t.Fatal(err)
		}
		m.objs[id] = o
		m.deleted = slices.DeleteFunc(m.deleted, func(d ids.ObjID) bool { return d == id })
	}
	checkAgainstModel(t, "page re-entered", h, m)
	snap = h.TraceSnapshot()
	checkShadow(t, "page re-entered", h, snap, m)
	if !snap.HasPage(pn) {
		t.Fatal("the re-entered page is missing from the snapshot")
	}

	// Deleted and reinstalled between snapshots with the same fields but
	// another size, an object must reach the shadow with its new size.
	id := page[0]
	o := m.objs[id]
	h.Delete(id)
	o.size++
	if err := h.Install(id, o.fields, o.size, o.root); err != nil {
		t.Fatal(err)
	}
	m.objs[id] = o
	checkShadow(t, "size changed", h, h.TraceSnapshot(), m)
}
