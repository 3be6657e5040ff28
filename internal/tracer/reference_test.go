package tracer

import (
	"sort"

	"backtrace/internal/heap"
	"backtrace/internal/ids"
	"backtrace/internal/refs"
)

// This file is the tests' oracle: the local trace written the way Sections
// 2–3 state it — roots traced one at a time in ascending distance order,
// every object marked once by the first root that reaches it — with none of
// the production marker's machinery (no paged table, no mark stack, marks
// kept in a plain map). The equivalence tests compare Tracer.Run and its
// mark table against it.

// root is one starting point of the forward trace: a local object together
// with the distance of the root it represents (0 for persistent and
// application roots, the inref distance otherwise).
type root struct {
	obj  ids.ObjID
	dist int
}

// forwardMark performs the distance-ordered local trace of Sections 2–3:
//
//   - roots are the persistent roots and application roots (distance 0,
//     Section 6.3) and every inref not flagged garbage (its own distance);
//   - roots are traced in increasing distance order, each object is scanned
//     exactly once, and when the trace first reaches an outref its distance
//     becomes one plus the distance of the root being traced.
//
// Remote references held directly in application-root variables mark the
// corresponding outrefs at distance 1.
func forwardMark(h *heap.Heap, tbl *refs.Table) (map[ids.ObjID]int, *markResult) {
	marked := make(map[ids.ObjID]int)
	res := &markResult{outrefDist: make(map[ids.Ref]int)}
	var roots []root
	for _, obj := range h.PersistentRoots() {
		roots = append(roots, root{obj: obj, dist: 0})
	}
	for _, r := range h.AppRoots() {
		if r.Site == h.Site() {
			roots = append(roots, root{obj: r.Obj, dist: 0})
		} else if _, ok := res.outrefDist[r]; !ok {
			// A variable holding a remote reference is a root one
			// inter-site hop away from the target.
			res.outrefDist[r] = 1
			if _, ok := tbl.Outref(r); !ok {
				res.missingOutrefs = append(res.missingOutrefs, r)
			}
		}
	}
	for _, in := range tbl.Inrefs() {
		if in.Garbage {
			// Flagged by a completed back trace: no longer a root, so
			// the local trace collects the cycle (Section 4.5).
			continue
		}
		roots = append(roots, root{obj: in.Obj, dist: in.Distance()})
	}

	// Ascending distance; ties broken by object id for determinism.
	sort.Slice(roots, func(i, j int) bool {
		if roots[i].dist != roots[j].dist {
			return roots[i].dist < roots[j].dist
		}
		return roots[i].obj < roots[j].obj
	})

	var stack []ids.ObjID
	for _, rt := range roots {
		if !h.Contains(rt.obj) {
			continue
		}
		if _, ok := marked[rt.obj]; ok {
			continue
		}
		marked[rt.obj] = rt.dist
		stack = append(stack[:0], rt.obj)
		for len(stack) > 0 {
			obj := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			fields, _ := h.FieldsOf(obj)
			for _, f := range fields {
				if f.IsZero() {
					continue
				}
				if f.Site == h.Site() {
					if !h.Contains(f.Obj) {
						continue
					}
					if _, seen := marked[f.Obj]; !seen {
						marked[f.Obj] = rt.dist
						stack = append(stack, f.Obj)
					}
					continue
				}
				// Remote reference: first reach sets the outref's
				// distance (Section 3: "its distance is set to one plus
				// that of the inref being traced").
				if _, seen := res.outrefDist[f]; !seen {
					res.outrefDist[f] = refs.AddDist(rt.dist, 1)
					if _, ok := tbl.Outref(f); !ok {
						res.missingOutrefs = append(res.missingOutrefs, f)
					}
				}
			}
		}
	}
	return marked, res
}

// referenceTrace is the whole local trace over forwardMark: what a commit
// consumes, computed by plain loops over the sorted heap and table, plus
// the mark of every reached object. Only the Section 5 outset pass is
// shared with production — the two outset algorithms are checked against
// each other elsewhere — and it reads the marks through a mark table built
// from the map, as Tracer.Run hands it its own, and its roots straight from
// the live table rather than from a refs.Cut.
func referenceTrace(h *heap.Heap, tbl *refs.Table, threshold int, algo OutsetAlgorithm) (*Result, map[ids.ObjID]int) {
	marked, mr := forwardMark(h, tbl)
	var marks markTable
	marks.reset(h)
	for obj, d := range marked {
		*marks.at(obj) = int64(d) + 1
	}
	var roots []refs.Root
	for _, in := range tbl.Inrefs() {
		if !in.Garbage {
			roots = append(roots, refs.Root{Obj: in.Obj, Distance: in.Distance()})
		}
	}
	outsets, _ := computeOutsets(&outsetEnv{h: h, roots: roots, marks: &marks, outrefDist: mr.outrefDist, threshold: threshold}, algo)
	res := &Result{
		OutrefDist: mr.outrefDist,
		Missing:    mr.missingOutrefs,
		Back:       NewBackInfo(outsets),
	}
	for _, obj := range heapObjects(h) {
		if _, ok := marked[obj]; !ok {
			res.Dead = append(res.Dead, obj)
		}
	}
	for _, o := range tbl.Outrefs() {
		if _, ok := mr.outrefDist[o.Target]; !ok {
			res.Untraced = append(res.Untraced, o.Target)
		}
	}
	sort.Slice(res.Missing, func(i, j int) bool { return res.Missing[i].Less(res.Missing[j]) })
	return res, marked
}

// markOf returns the mark the tracer's last Run gave a heap object: its
// distance, and whether the trace reached it. Ids absent from the heap
// report unmarked, whatever the mark table holds for them.
func (t *Tracer) markOf(h *heap.Heap, obj ids.ObjID) (int, bool) {
	enc := t.marks.load(obj)
	if enc == 0 || !h.Contains(obj) {
		return 0, false
	}
	return int(enc - 1), true
}

// heapObjects returns h's object ids in ascending order.
func heapObjects(h *heap.Heap) []ids.ObjID {
	var out []ids.ObjID
	h.EachObject(func(obj ids.ObjID, _ []ids.Ref, _ int, _ bool) { out = append(out, obj) })
	return out
}
