package tracer

import (
	"sort"

	"backtrace/internal/heap"
	"backtrace/internal/ids"
	"backtrace/internal/refs"
)

// outsetEnv bundles what both outset algorithms need to classify graph
// nodes during the computation of back information (Section 5).
type outsetEnv struct {
	h *heap.Heap
	// roots are the inrefs not flagged garbage, ascending by object.
	roots []refs.Root
	// marks is the forward mark's table (distance+1 per object, zero when
	// unmarked); outrefDist its outref distances.
	marks      *markTable
	outrefDist map[ids.Ref]int
	threshold  int
}

// suspectedObj reports whether a local object is suspected: reached by the
// forward trace, but only from roots beyond the suspicion threshold
// ("objects and outrefs traced from [clean inrefs] are said to be clean;
// the remaining are said to be suspected", Section 3). Unmarked objects are
// garbage, not suspected; the traversal skips them because they are about
// to be swept. So are phantom marks — ids the mark reached through a field
// but the heap does not hold.
func (e *outsetEnv) suspectedObj(obj ids.ObjID) bool {
	if p := e.marks.at(obj); p == nil || *p == 0 || int(*p-1) <= e.threshold {
		return false
	}
	_, ok := e.h.SlotFields(obj)
	return ok
}

// suspectedOutref reports whether a remote reference should appear in
// outsets: its outref was reached by the trace and it was reached only
// from suspected roots — equivalently, its freshly computed distance
// exceeds threshold+1 (an outref traced from a clean inref has distance at
// most threshold+1 and is clean, Section 3). Insert-barrier pins and
// transfer-barrier marks are deliberately ignored here: computing an inset
// for a temporarily-clean outref is conservative (a back trace checks
// cleanliness before using the inset), and it keeps the back information
// valid when the pin or barrier mark expires.
func (e *outsetEnv) suspectedOutref(r ids.Ref) bool {
	d, ok := e.outrefDist[r]
	return ok && d > e.threshold+1
}

// suspectedInrefs returns the inrefs for which outsets must be computed:
// distance beyond the threshold and not flagged garbage, ordered by object.
func (e *outsetEnv) suspectedInrefs() []refs.Root {
	var out []refs.Root
	for _, rt := range e.roots {
		if rt.Distance > e.threshold {
			out = append(out, rt)
		}
	}
	return out
}

// outsetStats reports the cost of an outset computation for the Section 5
// complexity comparison.
type outsetStats struct {
	objectsVisited  int64 // object scans including re-scans
	objectsRetraced int64 // scans beyond an object's first (Section 5.1 only)
	unions          int64 // union/addRef operations (Section 5.2 only)
	memoHits        int64 // unions answered by the memo tables
}

// --- Section 5.1: independent tracing from each suspected inref ---------

// outsetsIndependent computes outsets by tracing from each suspected inref
// independently, "ignoring the traces from other suspected inrefs": each
// trace uses its own colour, so objects may be traced multiple times —
// O(ni·(n+e)) in the worst case.
func outsetsIndependent(e *outsetEnv) (map[ids.ObjID][]ids.Ref, outsetStats) {
	var stats outsetStats
	outsets := make(map[ids.ObjID][]ids.Ref)
	everVisited := make(map[ids.ObjID]bool)

	for _, in := range e.suspectedInrefs() {
		visited := make(map[ids.ObjID]bool)
		set := make(map[ids.Ref]struct{})
		var stack []ids.ObjID
		if e.suspectedObj(in.Obj) {
			visited[in.Obj] = true
			stack = append(stack, in.Obj)
		}
		for len(stack) > 0 {
			obj := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			stats.objectsVisited++
			if everVisited[obj] {
				stats.objectsRetraced++
			}
			everVisited[obj] = true
			fields, _ := e.h.SlotFields(obj)
			for _, z := range fields {
				if z.IsZero() {
					continue
				}
				if z.Site != e.h.Site() {
					if e.suspectedOutref(z) {
						set[z] = struct{}{}
					}
					continue
				}
				if !e.suspectedObj(z.Obj) || visited[z.Obj] {
					continue
				}
				visited[z.Obj] = true
				stack = append(stack, z.Obj)
			}
		}
		outsets[in.Obj] = sortedRefSet(set)
	}
	return outsets, stats
}

func sortedRefSet(set map[ids.Ref]struct{}) []ids.Ref {
	out := make([]ids.Ref, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// --- Section 5.2: single-pass bottom-up computation ----------------------

// The paper's TraceSuspected combines depth-first traversal, Tarjan's
// strongly-connected-components algorithm, and bottom-up outset
// accumulation: every object is traced exactly once, objects in one SCC
// share one outset, and outsets are interned in canonical form with unions
// memoized so the expected cost is near-linear.
//
// The implementation below is an iterative version of the paper's recursive
// pseudocode (explicit frame stack), so arbitrarily deep suspect chains
// cannot exhaust the goroutine stack.

const leaderInfinity = int(^uint(0) >> 1) // "Leader[z] := infinity"

type buFrame struct {
	obj   ids.ObjID
	next  int // next field index to examine
	child ids.ObjID
}

type bottomUpState struct {
	env     *outsetEnv
	it      *interner
	mark    map[ids.ObjID]int // visitation order, from 1 ("Mark[x] := Counter")
	leader  map[ids.ObjID]int
	outset  map[ids.ObjID]outsetID
	scc     []ids.ObjID // auxiliary stack of the SCC algorithm
	counter int
	visits  int64
}

// outsetsBottomUp computes outsets with the Section 5.2 algorithm.
func outsetsBottomUp(e *outsetEnv) (map[ids.ObjID][]ids.Ref, outsetStats) {
	st := &bottomUpState{
		env:    e,
		it:     newInterner(),
		mark:   make(map[ids.ObjID]int),
		leader: make(map[ids.ObjID]int),
		outset: make(map[ids.ObjID]outsetID),
	}
	suspects := e.suspectedInrefs()
	for _, in := range suspects {
		if e.suspectedObj(in.Obj) && st.mark[in.Obj] == 0 {
			st.trace(in.Obj)
		}
	}
	outsets := make(map[ids.ObjID][]ids.Ref, len(suspects))
	for _, in := range suspects {
		if e.suspectedObj(in.Obj) {
			outsets[in.Obj] = st.it.refs(st.outset[in.Obj])
		} else {
			outsets[in.Obj] = nil
		}
	}
	return outsets, outsetStats{
		objectsVisited: st.visits,
		unions:         st.it.unions,
		memoHits:       st.it.memoHits,
	}
}

// trace runs the combined DFS/SCC/outset pass from one suspected object.
func (st *bottomUpState) trace(start ids.ObjID) {
	e := st.env
	st.enter(start)
	frames := []buFrame{{obj: start}}

	for len(frames) > 0 {
		f := &frames[len(frames)-1]
		x := f.obj

		// A child frame just finished: fold its outset and leader into x
		// ("Outset[x] := Outset[x] ∪ Outset[z]; Leader[x] := min(...)").
		if f.child != ids.NoObj {
			st.fold(x, f.child)
			f.child = ids.NoObj
		}

		descended := false
		if fields, ok := e.h.SlotFields(x); ok {
			for f.next < len(fields) {
				z := fields[f.next]
				f.next++
				if z.IsZero() {
					continue
				}
				if z.Site != e.h.Site() {
					// "if z is remote add z to Outset[x]" — suspected
					// outrefs only.
					if e.suspectedOutref(z) {
						st.outset[x] = st.it.addRef(st.outset[x], z)
					}
					continue
				}
				if !e.suspectedObj(z.Obj) {
					continue // "if z is clean continue loop" (or dead)
				}
				if st.mark[z.Obj] != 0 {
					// Already traced (possibly still on the SCC stack):
					// fold immediately, no recursion.
					st.fold(x, z.Obj)
					continue
				}
				// Descend.
				st.enter(z.Obj)
				f.child = z.Obj
				frames = append(frames, buFrame{obj: z.Obj})
				descended = true
				break
			}
		}
		if descended {
			continue
		}

		// x is complete. If it is its component's leader, pop the
		// component and share x's outset with every member.
		if st.leader[x] == st.mark[x] {
			for {
				z := st.scc[len(st.scc)-1]
				st.scc = st.scc[:len(st.scc)-1]
				st.outset[z] = st.outset[x]
				st.leader[z] = leaderInfinity
				if z == x {
					break
				}
			}
		}
		frames = frames[:len(frames)-1]
	}
}

// enter begins tracing object x: assign its visitation mark, push it on the
// SCC stack, and initialize its outset and leader.
func (st *bottomUpState) enter(x ids.ObjID) {
	st.counter++
	st.visits++
	st.mark[x] = st.counter
	st.leader[x] = st.counter
	st.outset[x] = emptyOutset
	st.scc = append(st.scc, x)
}

// fold merges a traced child's outset and leader into x.
func (st *bottomUpState) fold(x, z ids.ObjID) {
	st.outset[x] = st.it.union(st.outset[x], st.outset[z])
	if lz := st.leader[z]; lz < st.leader[x] {
		st.leader[x] = lz
	}
}
