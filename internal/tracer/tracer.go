package tracer

import (
	"fmt"
	"time"

	"backtrace/internal/heap"
	"backtrace/internal/ids"
	"backtrace/internal/refs"
)

// OutsetAlgorithm selects how outsets of suspected inrefs are computed.
type OutsetAlgorithm int

const (
	// AlgoBottomUp is the Section 5.2 single-pass algorithm (default):
	// Tarjan SCCs, interned canonical outsets, memoized unions.
	AlgoBottomUp OutsetAlgorithm = iota + 1
	// AlgoIndependent is the Section 5.1 algorithm: an independent trace
	// from every suspected inref, possibly retracing objects.
	AlgoIndependent
)

// String returns the algorithm's name.
func (a OutsetAlgorithm) String() string {
	switch a {
	case AlgoBottomUp:
		return "bottom-up"
	case AlgoIndependent:
		return "independent"
	default:
		return fmt.Sprintf("OutsetAlgorithm(%d)", int(a))
	}
}

// Stats reports the cost of one local trace.
type Stats struct {
	// ObjectsTraced counts the objects the forward mark reached, each
	// exactly once whatever the worker count. For an incremental remark it
	// counts the rescans the relaxation made instead.
	ObjectsTraced int64
	// OutsetVisits counts object scans during outset computation.
	OutsetVisits int64
	// OutsetRetraced counts scans beyond an object's first during outset
	// computation (nonzero only for AlgoIndependent).
	OutsetRetraced int64
	// Unions and MemoHits count outset union operations and how many were
	// answered from the memo tables (AlgoBottomUp only).
	Unions   int64
	MemoHits int64
	// SuspectedInrefs and SuspectedOutrefs count the suspected iorefs at
	// this trace (ni and no in the paper's space bound).
	SuspectedInrefs  int
	SuspectedOutrefs int
	// Duration is the wall-clock time of the trace computation (forward
	// mark + outset computation), used to report trace latency when the
	// computation runs off the site lock.
	Duration time.Duration

	// Incremental reports whether the result was produced by the dirty-set
	// remark rather than a full forward mark.
	Incremental bool
	// FallbackReason names why an incremental-mode trace ran full; empty
	// when the remark ran (or the tracer was not in incremental mode).
	FallbackReason string
	// DirtySeeds counts the changed entities the remark relaxed from.
	DirtySeeds int
	// OutsetsReused reports whether the back information was carried over
	// unchanged from the previous trace instead of being recomputed.
	OutsetsReused bool

	// Workers is the number of mark workers the trace ran with, always at
	// least 1. Steals counts work-stealing events between their deques; it
	// is the one scheduling-dependent counter, zero with one worker.
	Workers int
	Steals  int64
}

// Result is the outcome of one local trace, computed without mutating the
// heap or the ioref tables. The owning Site applies it (sweeping dead
// objects, trimming outrefs, installing distances and back information) at
// commit time; see Section 6.2 for why computation and installation are
// separated.
type Result struct {
	// Threshold is the suspicion threshold the trace classified with.
	Threshold int
	// Marked maps every object reached from a root (persistent roots,
	// application roots, and non-garbage-flagged inrefs) to the distance
	// of the first root that reached it, partitioned by heap shard.
	Marked *MarkSet
	// Dead lists the objects that were present and unreached — garbage to
	// sweep, in ascending order.
	Dead []ids.ObjID
	// OutrefDist maps each outref the trace reached to its new distance.
	OutrefDist map[ids.Ref]int
	// Untraced lists outrefs the trace did not reach — candidates for
	// trimming (ascending order). The commit skips any that are pinned or
	// barrier-cleaned by then.
	Untraced []ids.Ref
	// Missing lists remote references found in reachable objects with no
	// outref table entry; always empty unless a protocol invariant broke.
	Missing []ids.Ref
	// Back is the freshly computed back information for suspected iorefs.
	Back *BackInfo
	// Stats reports the trace's cost.
	Stats Stats
}

// IsCleanObj reports whether the trace classified a local object as clean
// (reached from a root at distance ≤ threshold).
func (r *Result) IsCleanObj(obj ids.ObjID) bool {
	d, ok := r.Marked.Get(obj)
	return ok && d <= r.Threshold
}

// IsLiveObj reports whether the trace reached the object at all.
func (r *Result) IsLiveObj(obj ids.ObjID) bool {
	_, ok := r.Marked.Get(obj)
	return ok
}

// Tracer runs one site's full local traces. The zero value is ready to
// use. It owns the only state a full trace keeps between runs — the dense
// mark table, cleared and reused so steady-state traces stop allocating it —
// and is therefore not safe for concurrent use; the owning site's trace
// mutex already serializes local traces. Results never alias the table.
type Tracer struct {
	// Workers is the number of mark workers. One (or less) is the
	// sequential case: the same marker, run inline on the caller's
	// goroutine. The result is identical at every worker count.
	Workers int

	// marks is the dense mark table, indexed by object id. It is sized by
	// the heap's allocation high-water mark, so it grows with the ids ever
	// allocated rather than with the live objects.
	marks []int64
}

// Run performs a local trace of the heap at the given suspicion threshold:
// the distance-ordered forward mark of Sections 2–3 followed by the
// Section 5 computation of back information with the selected algorithm.
// It does not modify the heap or the tables but requires that nothing else
// mutates them meanwhile; the site guarantees this by tracing a snapshot of
// both while the live state keeps changing — the off-lock local trace
// enabled by the Section 6.2 double buffering.
func (t *Tracer) Run(h *heap.Heap, tbl *refs.Table, threshold int, algo OutsetAlgorithm) *Result {
	start := time.Now()
	workers := max(1, t.Workers)
	mr, steals := t.parallelMark(h, tbl, workers)
	outsets, ost := computeOutsets(&outsetEnv{h: h, tbl: tbl, mr: mr, threshold: threshold}, algo)

	res := &Result{
		Threshold:  threshold,
		Marked:     mr.marked,
		Dead:       mr.dead,
		OutrefDist: mr.outrefDist,
		Missing:    mr.missingOutrefs,
		Back:       NewBackInfo(outsets),
		Stats: Stats{
			ObjectsTraced:   int64(mr.marked.Len()),
			OutsetVisits:    ost.objectsVisited,
			OutsetRetraced:  ost.objectsRetraced,
			Unions:          ost.unions,
			MemoHits:        ost.memoHits,
			SuspectedInrefs: len(outsets),
			Workers:         workers,
			Steals:          steals,
		},
	}
	res.Untraced, res.Stats.SuspectedOutrefs = outrefSummary(tbl, mr.outrefDist, threshold)
	res.Stats.Duration = time.Since(start)
	return res
}

// computeOutsets runs the selected Section 5 algorithm over the marks in
// env.
func computeOutsets(env *outsetEnv, algo OutsetAlgorithm) (map[ids.ObjID][]ids.Ref, outsetStats) {
	if algo == AlgoIndependent {
		return outsetsIndependent(env)
	}
	return outsetsBottomUp(env)
}

// outrefSummary lists the outrefs a trace did not reach (ascending, the
// table's order) and counts the reached ones that are suspected.
func outrefSummary(tbl *refs.Table, outrefDist map[ids.Ref]int, threshold int) (untraced []ids.Ref, suspected int) {
	for _, o := range tbl.Outrefs() {
		if _, ok := outrefDist[o.Target]; !ok {
			untraced = append(untraced, o.Target)
		}
	}
	for _, d := range outrefDist {
		if d > threshold+1 {
			suspected++
		}
	}
	return untraced, suspected
}
