package tracer

import (
	"fmt"
	"math/rand"
	"testing"

	"backtrace/internal/heap"
	"backtrace/internal/ids"
	"backtrace/internal/refs"
)

// The site traces the incremental copy-on-write snapshot: shadow copies of
// the heap and tables patched from their dirty sets, O(changes) per trace,
// traced by one Tracer whose mark table is reused from trace to trace. The
// tests below hold that lineage to the reference trace of an independent
// deep copy of the same state.

// checkSnapshotLineage runs rounds of random mutations on one heap/table
// pair and, after each, traces their TraceSnapshots with one long-lived
// Tracer. Every result and every heap object's mark must match the
// reference trace of a deep copy. Rounds divisible by idleEvery (when
// positive) mutate nothing, so the snapshot is patched from empty dirty
// sets. Dead objects are swept after each trace, as the site's commit does.
func checkSnapshotLineage(t *testing.T, seed int64, shards, workers, rounds, idleEvery int) {
	t.Helper()
	const threshold = 2
	rng := rand.New(rand.NewSource(seed))
	h := heap.NewSharded(1, shards)
	tbl := refs.NewTableSharded(1, threshold+2, shards)
	h.EnableDeltaTracking()
	tbl.EnableDeltaTracking()
	tr := &Tracer{Workers: workers}

	var objs []ids.Ref
	for i := 0; i < 4; i++ {
		objs = append(objs, h.AllocRoot())
	}
	for round := 0; round < rounds; round++ {
		if idleEvery <= 0 || round == 0 || round%idleEvery != 0 {
			for step := 0; step < 15; step++ {
				mutateState(rng, h, tbl, &objs, threshold)
			}
		}
		want, wantMarks := referenceTrace(h.Snapshot(), tbl.Snapshot(), threshold, AlgoBottomUp)

		sh := h.TraceSnapshot()
		got := tr.Run(sh, tbl.TraceSnapshot(), threshold, AlgoBottomUp)
		ctx := fmt.Sprintf("seed %d round %d shards %d workers %d", seed, round, shards, workers)
		sameResult(t, ctx, got, want)
		for _, obj := range sh.Objects() {
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

// TestIncrementalEquivalence holds the incremental snapshot lineage of a
// single-shard heap to the reference trace, at worker counts {1, 2, 4, 8}.
func TestIncrementalEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			checkSnapshotLineage(t, seed, 1, []int{1, 2, 4, 8}[seed%4], 15, 0)
		})
	}
}

// TestParallelIncrementalEquivalence does the same on sharded heaps, whose
// shards patch concurrently, with every fifth round idle.
func TestParallelIncrementalEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			checkSnapshotLineage(t, seed, []int{1, 2, 8}[seed%3], []int{1, 2, 4, 8}[seed%4], 10, 5)
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
		st := tr.Run(h.TraceSnapshot(), tbl.TraceSnapshot(), threshold, algo).Stats
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
