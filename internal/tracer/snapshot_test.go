package tracer

import (
	"fmt"
	"math/rand"
	"testing"

	"backtrace/internal/heap"
	"backtrace/internal/ids"
	"backtrace/internal/refs"
)

// The site traces a copy-on-write cut: a frozen heap view that shares its
// pages with the live heap until the live heap writes them, and the
// tables' shadow copy patched from their dirty sets, traced by one Tracer
// whose mark table is reused from trace to trace. The tests below hold
// that lineage to the reference trace of an independent deep copy of the
// same state.

// deepCopy copies h's objects and roots into a heap that shares nothing
// with it.
func deepCopy(h *heap.Heap) *heap.Heap {
	cp := heap.New(h.Site())
	h.EachObject(func(obj ids.ObjID, fields []ids.Ref, size int, root bool) {
		if err := cp.Install(obj, fields, size, root); err != nil {
			panic(err)
		}
	})
	for _, r := range h.AppRoots() {
		cp.AddAppRoot(r)
	}
	cp.SetNextID(h.NextID())
	return cp
}

// checkSnapshotLineage runs rounds of random mutations on one heap/table
// pair and, after each, cuts a heap view and a table snapshot, mutates the
// live pair again as a mutator running beside the trace would, and only
// then traces the cut with one long-lived Tracer. Every result and every
// heap object's mark must match the reference trace of a deep copy taken
// at the cut. Rounds divisible by idleEvery (when positive) mutate
// nothing, so the table snapshot is patched from empty dirty sets and the
// view copies no page. Dead objects are swept after each trace, as the
// site's commit does.
func checkSnapshotLineage(t *testing.T, seed int64, rounds, idleEvery int) {
	t.Helper()
	const threshold = 2
	rng := rand.New(rand.NewSource(seed))
	h := heap.New(1)
	tbl := refs.NewTable(1, threshold+2)
	var tr Tracer

	var objs []ids.Ref
	for i := 0; i < 4; i++ {
		objs = append(objs, h.AllocRoot())
	}
	for round := 0; round < rounds; round++ {
		idle := idleEvery > 0 && round > 0 && round%idleEvery == 0
		mutate := func() {
			for step := 0; !idle && step < 15; step++ {
				mutateState(rng, h, tbl, &objs, threshold)
			}
		}
		mutate()
		want, wantMarks := referenceTrace(deepCopy(h), tbl.Snapshot(), threshold, AlgoBottomUp)

		sh, st := h.Snapshot(), tbl.TraceSnapshot()
		mutate()
		got := tr.Run(sh, st, threshold, AlgoBottomUp)
		ctx := fmt.Sprintf("seed %d round %d", seed, round)
		sameResult(t, ctx, got, want)
		for _, obj := range heapObjects(sh) {
			d, ok := tr.markOf(sh, obj)
			wd, wok := wantMarks[obj]
			if d != wd || ok != wok {
				t.Fatalf("%s: mark of %v = (%d,%v), want (%d,%v)", ctx, obj, d, ok, wd, wok)
			}
		}
		for _, obj := range got.Dead {
			h.Delete(obj)
			tbl.RemoveInref(obj)
		}
	}
}

// TestIncrementalEquivalence holds the incremental snapshot lineage to the
// reference trace.
func TestIncrementalEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			checkSnapshotLineage(t, seed, 15, 0)
		})
	}
}

// TestParallelIncrementalEquivalence does the same with every fifth round
// idle, so the table snapshot is also patched from empty dirty sets. (The
// name is from when the heap was split into partitions patched in
// parallel.)
func TestParallelIncrementalEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			checkSnapshotLineage(t, seed, 10, 5)
		})
	}
}

// TestIncrementalFallbackReasons pins what every trace reports about itself:
// a full mark (Incremental false, FallbackReason FullTrace), whether it is
// the first, follows a monotone change or a removal, or runs at a new
// threshold or with the other outset algorithm.
func TestIncrementalFallbackReasons(t *testing.T) {
	h := heap.New(1)
	tbl := refs.NewTable(1, 4)
	root := h.AllocRoot()
	other := h.Alloc()
	var tr Tracer
	check := func(what string, threshold int, algo OutsetAlgorithm) {
		t.Helper()
		st := tr.Run(h.Snapshot(), tbl.TraceSnapshot(), threshold, algo).Stats
		if st.Incremental || st.FallbackReason != FullTrace {
			t.Fatalf("%s: Incremental=%v FallbackReason=%q, want a full trace", what, st.Incremental, st.FallbackReason)
		}
	}
	check("first trace", 2, AlgoBottomUp)
	if err := h.AddField(root.Obj, other); err != nil {
		t.Fatal(err)
	}
	check("monotone change", 2, AlgoBottomUp)
	if _, err := h.RemoveField(root.Obj, other); err != nil {
		t.Fatal(err)
	}
	check("removal", 2, AlgoBottomUp)
	check("threshold change", 3, AlgoBottomUp)
	check("algorithm change", 3, AlgoIndependent)
}

// TestSparseIDMarkPages checks that the mark table follows the heap's live
// pages, not the ids ever allocated: a site that allocated and swept 3 000
// objects, then jumped its id counter to 10 million (ids are never
// recycled), traces its 10 remaining objects with one mark page.
func TestSparseIDMarkPages(t *testing.T) {
	const threshold = 2
	h := heap.New(1)
	tbl := refs.NewTable(1, threshold+2)
	var tr Tracer
	trace := func() *Result {
		res := tr.Run(h.Snapshot(), tbl.TraceSnapshot(), threshold, AlgoBottomUp)
		for _, obj := range res.Dead {
			h.Delete(obj)
		}
		return res
	}
	chain := func(n int) ids.Ref {
		root := h.AllocRoot()
		prev := root
		for i := 1; i < n; i++ {
			o := h.Alloc()
			if err := h.AddField(prev.Obj, o); err != nil {
				t.Fatal(err)
			}
			prev = o
		}
		return root
	}

	old := chain(3000)
	if res := trace(); res.Stats.ObjectsTraced != 3000 {
		t.Fatalf("first trace reached %d objects, want 3000", res.Stats.ObjectsTraced)
	}
	h.UnmarkPersistentRoot(old.Obj)
	if res := trace(); len(res.Dead) != 3000 {
		t.Fatalf("second trace found %d dead, want 3000", len(res.Dead))
	}
	h.SetNextID(10_000_000)
	chain(10)
	res := trace()
	if res.Stats.ObjectsTraced != 10 || len(res.Dead) != 0 {
		t.Fatalf("sparse trace: %d traced, %d dead; want 10 and 0", res.Stats.ObjectsTraced, len(res.Dead))
	}
	if ms := tr.marks; len(ms.pages) != 1 || ms.pages[0] == nil {
		t.Fatalf("mark directory holds %d entries, want the one page its 10 objects share", len(ms.pages))
	}

	// Live roots that keep the low ids stretch the directory across an id
	// gap: one pointer per PageSlots ids of live span (here 10M ids), but
	// mark pages only where the heap holds pages, and the id-order walk
	// still visits just the live objects, in order.
	h.SetNextID(20_000_000)
	chain(10)
	if res := trace(); res.Stats.ObjectsTraced != 20 {
		t.Fatalf("gapped trace reached %d objects, want 20", res.Stats.ObjectsTraced)
	}
	ms := tr.marks
	base, n := h.PageSpan()
	if span := 20_000_010>>heap.PageBits - 10_000_001>>heap.PageBits + 1; base != ms.base || n != len(ms.pages) || n != span {
		t.Fatalf("mark directory [%d,+%d), heap directory [%d,+%d), want %d pages", ms.base, len(ms.pages), base, n, span)
	}
	held := 0
	for _, p := range ms.pages {
		if p != nil {
			held++
		}
	}
	if held != 2 {
		t.Fatalf("%d mark pages across the gap, want 2", held)
	}
	walked := heapObjects(h)
	if len(walked) != 20 || walked[0] != 10_000_001 || walked[19] != 20_000_010 {
		t.Fatalf("id-order walk visited %d objects from %v to %v", len(walked), walked[0], walked[len(walked)-1])
	}
	for i := 1; i < len(walked); i++ {
		if walked[i] <= walked[i-1] {
			t.Fatalf("id-order walk out of order at %d: %v after %v", i, walked[i], walked[i-1])
		}
	}
}
