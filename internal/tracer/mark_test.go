package tracer

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"backtrace/internal/heap"
	"backtrace/internal/ids"
	"backtrace/internal/refs"
)

// mutateState applies one weighted random mutation to the heap/table pair,
// mirroring the legal site flows: allocation, local and remote edges,
// arriving and improving inrefs, variables, and — less often — field
// removal, inref loss or garbage flagging, and variable drops.
func mutateState(rng *rand.Rand, h *heap.Heap, tbl *refs.Table, objs *[]ids.Ref, threshold int) {
	switch rng.Intn(20) {
	case 0, 1, 2, 3:
		*objs = append(*objs, h.Alloc())
	case 4, 5, 6, 7, 8, 9:
		src := (*objs)[rng.Intn(len(*objs))]
		dst := (*objs)[rng.Intn(len(*objs))]
		_ = h.AddField(src.Obj, dst)
	case 10, 11:
		src := (*objs)[rng.Intn(len(*objs))]
		remote := ids.Ref{Site: 2, Obj: ids.ObjID(rng.Intn(30) + 1)}
		_ = h.AddField(src.Obj, remote)
		tbl.EnsureOutref(remote)
	case 12, 13:
		obj := (*objs)[rng.Intn(len(*objs))]
		tbl.AddSource(obj.Obj, 3)
		tbl.SetSourceDistance(obj.Obj, 3, rng.Intn(threshold+3))
	case 14:
		obj := (*objs)[rng.Intn(len(*objs))]
		if in, ok := tbl.Inref(obj.Obj); ok {
			if d := in.Distance(); d > 0 {
				tbl.SetSourceDistance(obj.Obj, 3, d-1)
			}
		}
	case 15:
		h.AddAppRoot((*objs)[rng.Intn(len(*objs))])
	case 16:
		remote := ids.Ref{Site: 2, Obj: ids.ObjID(rng.Intn(30) + 1)}
		h.AddAppRoot(remote)
		tbl.EnsureOutref(remote)
	case 17:
		src := (*objs)[rng.Intn(len(*objs))]
		if fields, _ := h.FieldsOf(src.Obj); len(fields) > 0 {
			_, _ = h.RemoveField(src.Obj, fields[rng.Intn(len(fields))])
		}
	case 18:
		obj := (*objs)[rng.Intn(len(*objs))]
		if rng.Intn(2) == 0 {
			tbl.RemoveSource(obj.Obj, 3)
		} else {
			tbl.FlagGarbage(obj.Obj)
		}
	case 19:
		h.RemoveAppRoot((*objs)[rng.Intn(len(*objs))])
	}
}

// sameResult fails unless got matches the reference trace on every field a
// commit consumes: outref distances, dead set, untraced set, missing set,
// and back information.
func sameResult(t *testing.T, ctx string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.OutrefDist, want.OutrefDist) {
		t.Fatalf("%s: OutrefDist diverges:\ngot  %v\nwant %v", ctx, got.OutrefDist, want.OutrefDist)
	}
	if !reflect.DeepEqual(got.Dead, want.Dead) {
		t.Fatalf("%s: Dead diverges:\ngot  %v\nwant %v", ctx, got.Dead, want.Dead)
	}
	if !reflect.DeepEqual(got.Untraced, want.Untraced) {
		t.Fatalf("%s: Untraced diverges:\ngot  %v\nwant %v", ctx, got.Untraced, want.Untraced)
	}
	if !reflect.DeepEqual(got.Missing, want.Missing) {
		t.Fatalf("%s: Missing diverges:\ngot  %v\nwant %v", ctx, got.Missing, want.Missing)
	}
	if !reflect.DeepEqual(got.Back.Outsets, want.Back.Outsets) {
		t.Fatalf("%s: Back.Outsets diverges:\ngot  %v\nwant %v", ctx, got.Back.Outsets, want.Back.Outsets)
	}
	if !reflect.DeepEqual(got.Back.Insets, want.Back.Insets) {
		t.Fatalf("%s: Back.Insets diverges:\ngot  %v\nwant %v", ctx, got.Back.Insets, want.Back.Insets)
	}
}

// TestParallelEquivalence is the bit-identical property for local traces:
// over seeded randomized states and both outset algorithms, Tracer.Run
// must match the literal Sections 2–3 trace (referenceTrace) on every
// comparable result field and on the mark of every heap object. One Tracer
// serves every seed and round, so its reused mark table is refitted from
// heap to heap and cleared between traces, or the test fails.
func TestParallelEquivalence(t *testing.T) {
	const (
		numSeeds  = 30
		rounds    = 6
		threshold = 2
	)
	var tr Tracer
	for seed := int64(1); seed <= numSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			algo := AlgoBottomUp
			if seed%5 == 0 {
				algo = AlgoIndependent
			}
			h := heap.New(1)
			tbl := refs.NewTable(1, threshold+2)

			var objs []ids.Ref
			for i := 0; i < 4; i++ {
				objs = append(objs, h.AllocRoot())
			}
			for round := 0; round < rounds; round++ {
				for step := 0; step < 25; step++ {
					mutateState(rng, h, tbl, &objs, threshold)
				}
				want, wantMarks := referenceTrace(h, tbl, threshold, algo)
				got := tr.Run(h, tbl.Cut(), threshold, algo)
				ctx := fmt.Sprintf("seed %d round %d algo %v", seed, round, algo)
				sameResult(t, ctx, got, want)
				for _, obj := range heapObjects(h) {
					d, ok := tr.markOf(h, obj)
					wd, wok := wantMarks[obj]
					if d != wd || ok != wok {
						t.Fatalf("%s: mark of %v = (%d,%v), want (%d,%v)", ctx, obj, d, ok, wd, wok)
					}
				}
				if !EqualResults(got, want) {
					t.Fatalf("%s: EqualResults disagrees with field comparison", ctx)
				}
				if got.Stats.ObjectsTraced != int64(len(wantMarks)) {
					t.Fatalf("%s: ObjectsTraced %d, want %d objects marked once each",
						ctx, got.Stats.ObjectsTraced, len(wantMarks))
				}
				// Sweep as the site's commit would.
				for _, obj := range want.Dead {
					h.Delete(obj)
					tbl.RemoveInref(obj)
				}
			}
		})
	}
}
