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
	// ObjectsTraced counts the objects the forward mark reached.
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
	// MarkDuration is the wall-clock time of the forward mark (seeding,
	// marking, and the dead tally); OutsetsDuration that of the rest (the
	// Section 5 outsets, back information and outref summary). Duration is
	// their sum: the whole trace computation, used to report trace latency
	// when the computation runs off the site lock.
	MarkDuration    time.Duration
	OutsetsDuration time.Duration
	Duration        time.Duration

	// Incremental is always false and FallbackReason always FullTrace:
	// every local trace is a full mark. Both stay because external
	// consumers of Stats read them per trace.
	Incremental    bool
	FallbackReason string
}

// Result is the outcome of one local trace, computed without mutating the
// heap or the ioref tables. The owning Site applies it (sweeping dead
// objects, trimming outrefs, installing distances and back information) at
// commit time; see Section 6.2 for why computation and installation are
// separated.
type Result struct {
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

// FullTrace is the FallbackReason every trace reports.
const FullTrace = "full-trace"

// Tracer runs one site's local traces. The zero value is ready to use. It
// owns the only state a trace keeps between runs — the mark table, whose
// pages are cleared and reused so steady-state traces stop allocating them
// — and is therefore not safe for concurrent use; the owning site's trace
// mutex already serializes local traces. Results never alias the table.
type Tracer struct {
	// marks is the mark table, paged like the traced heap: a page of
	// heap.PageSlots marks for each heap page, so it grows with the pages
	// holding live objects (and a directory pointer per page number
	// between them), not with the ids ever allocated. Pages the heap
	// dropped are dropped here too; the rest are cleared per trace.
	marks markTable
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
	mr := t.mark(h, tbl)
	markEnd := time.Now()
	outsets, ost := computeOutsets(&outsetEnv{h: h, tbl: tbl, marks: &t.marks, outrefDist: mr.outrefDist, threshold: threshold}, algo)

	res := &Result{
		Dead:       mr.dead,
		OutrefDist: mr.outrefDist,
		Missing:    mr.missingOutrefs,
		Back:       NewBackInfo(outsets),
		Stats: Stats{
			ObjectsTraced:   mr.objectsTraced,
			OutsetVisits:    ost.objectsVisited,
			OutsetRetraced:  ost.objectsRetraced,
			Unions:          ost.unions,
			MemoHits:        ost.memoHits,
			SuspectedInrefs: len(outsets),
			FallbackReason:  FullTrace,
		},
	}
	res.Untraced, res.Stats.SuspectedOutrefs = outrefSummary(tbl, mr.outrefDist, threshold)
	res.Stats.MarkDuration = markEnd.Sub(start)
	res.Stats.OutsetsDuration = time.Since(markEnd)
	res.Stats.Duration = res.Stats.MarkDuration + res.Stats.OutsetsDuration
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
