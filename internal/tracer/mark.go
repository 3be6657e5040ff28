package tracer

import (
	"cmp"
	"slices"

	"backtrace/internal/heap"
	"backtrace/internal/ids"
	"backtrace/internal/refs"
)

// This file implements the forward mark of every full local trace: one stack
// loop over a paged mark table.
//
// Why it computes the paper's trace: the forward mark of Sections 2–3
// processes roots in ascending distance order with single marking, so an
// object's mark is the MINIMUM root distance over the roots that reach it,
// and an outref's distance is one plus the minimum final mark over the
// objects holding it (folded with the distance-1 application-root seeds).
// The roots are seeded onto the stack in descending distance order, so they
// pop in ascending order and each root's cone is finished before the next
// root: an object's first mark is its final one. The only exception is a
// root that a lower root also reaches — lowering its mark pushes it again,
// and the stale entry below rescans it at the same final mark, pushing
// nothing. Every object is therefore scanned at its final mark and every
// outref sees one-plus-that, so the Result is DeepEqual to the literal
// ascending-distance trace the tests keep as their oracle
// (reference_test.go).
//
// The mark table (markTable) is paged like the heap it marks: one page of
// int64 per heap page, at the same page number, storing distance+1 so the
// zero value means "unmarked". It is never copied out: the outset pass reads
// it in place, and the tally below emits only the dead objects and the
// marked count. The mark reads the heap through
// its lock-free SlotFields and marks ids without checking heap membership
// first — marking a deleted or absent id in a page that exists is harmless,
// because scans look the object up (and skip it), the tally walks heap
// slots rather than marks, and the outset pass never suspects an id the heap
// does not hold, so phantom marks can't leak into the result. An id whose
// page does not exist has no mark slot at all and is skipped.

// markResult is the outcome of the forward marking phase.
type markResult struct {
	// outrefDist is the new estimated distance of each outref the trace
	// reached: one plus the minimum mark over the objects holding it
	// (Section 3).
	outrefDist map[ids.Ref]int
	// missingOutrefs lists remote references encountered in reachable
	// objects for which the outref table has no entry — a protocol
	// invariant violation surfaced for tests.
	missingOutrefs []ids.Ref
	// dead lists the heap objects the trace did not reach, ascending.
	dead []ids.ObjID
	// objectsTraced counts the heap objects the trace reached.
	objectsTraced int64
}

// lower lowers the mark at p to v if v improves on it (0 means unmarked)
// and reports whether it did — the caller then pushes the object so it is
// scanned at the new mark.
func lower(p *int64, v int64) bool {
	if *p != 0 && *p <= v {
		return false
	}
	*p = v
	return true
}

// mark runs the forward mark into t.marks and returns its result.
func (t *Tracer) mark(h *heap.Heap, tbl refs.Cut) *markResult {
	marks := &t.marks
	marks.reset(h)
	site := h.Site()
	res := &markResult{outrefDist: make(map[ids.Ref]int)}

	var stack []ids.ObjID
	seed := func(obj ids.ObjID, dist int) {
		if p := marks.at(obj); p != nil && lower(p, int64(dist)+1) {
			stack = append(stack, obj)
		}
	}
	for _, obj := range h.PersistentRoots() {
		seed(obj, 0)
	}
	for _, r := range h.AppRoots() {
		if r.Site == site {
			seed(r.Obj, 0)
		} else {
			// A variable holding a remote reference is a root one
			// inter-site hop from its target.
			res.outrefDist[r] = 1
		}
	}
	for _, rt := range tbl.Roots {
		seed(rt.Obj, rt.Distance)
	}
	slices.SortFunc(stack, func(a, b ids.ObjID) int { return cmp.Compare(marks.load(b), marks.load(a)) })

	for len(stack) > 0 {
		obj := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		fields, ok := h.SlotFields(obj)
		if !ok {
			continue // phantom mark: id not (or no longer) in the heap
		}
		enc := *marks.at(obj)
		for _, f := range fields {
			if f.IsZero() {
				continue
			}
			if f.Site == site {
				if p := marks.at(f.Obj); p != nil && lower(p, enc) {
					stack = append(stack, f.Obj)
				}
				continue
			}
			nd := refs.AddDist(int(enc-1), 1)
			if cur, ok := res.outrefDist[f]; !ok || nd < cur {
				res.outrefDist[f] = nd
			}
		}
	}

	for r := range res.outrefDist {
		if !tbl.HasOutref(r) {
			res.missingOutrefs = append(res.missingOutrefs, r)
		}
	}
	slices.SortFunc(res.missingOutrefs, ids.Ref.Compare)

	// Walk the heap's pages in id order: unmarked objects are the dead,
	// marked ones are only counted. Only slots holding objects are
	// consulted, which filters the phantom marks.
	h.EachID(func(id ids.ObjID) {
		if *marks.at(id) != 0 {
			res.objectsTraced++
		} else {
			res.dead = append(res.dead, id)
		}
	})
	return res
}

// markTable is a trace's mark table, paged like the heap it marks: a
// directory of mark pages with the heap directory's base and length,
// holding a page exactly where the heap holds one. Its size follows the
// heap's directory (live pages plus a pointer per page number of live
// span), not the ids ever allocated.
type markTable struct {
	base  int
	pages []*markPage
}

type markPage [heap.PageSlots]int64

// reset fits the table to h's pages and zeroes it. A page the heap still
// holds keeps its mark page, cleared; a page the heap no longer holds loses
// its mark page, uncleared.
func (m *markTable) reset(h *heap.Heap) {
	base, n := h.PageSpan()
	if base != m.base || n != len(m.pages) {
		pages := make([]*markPage, n)
		for j, p := range m.pages {
			if k := m.base + j - base; k >= 0 && k < n {
				pages[k] = p
			}
		}
		m.base, m.pages = base, pages
	}
	for j, p := range m.pages {
		switch {
		case !h.HasPage(base + j):
			m.pages[j] = nil
		case p == nil:
			m.pages[j] = new(markPage)
		default:
			clear(p[:])
		}
	}
}

// at returns obj's mark slot, or nil when the heap has no page there.
func (m *markTable) at(obj ids.ObjID) *int64 {
	j := int(obj>>heap.PageBits) - m.base
	if uint(j) >= uint(len(m.pages)) || m.pages[j] == nil {
		return nil
	}
	return &m.pages[j][obj&(heap.PageSlots-1)]
}

// load returns obj's mark (distance+1, or zero when unmarked).
func (m *markTable) load(obj ids.ObjID) int64 {
	if p := m.at(obj); p != nil {
		return *p
	}
	return 0
}
