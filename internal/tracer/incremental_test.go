package tracer

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"backtrace/internal/heap"
	"backtrace/internal/ids"
	"backtrace/internal/refs"
)

// sameResult fails unless the incremental result matches the full-trace
// result on every field a commit consumes: marks, outref distances, dead
// set, untraced set, missing set, and back information.
func sameResult(t *testing.T, ctx string, inc, full *Result) {
	t.Helper()
	if !reflect.DeepEqual(inc.Marked, full.Marked) {
		t.Fatalf("%s: Marked diverges:\nincremental %v\nfull        %v", ctx, inc.Marked, full.Marked)
	}
	if !reflect.DeepEqual(inc.OutrefDist, full.OutrefDist) {
		t.Fatalf("%s: OutrefDist diverges:\nincremental %v\nfull        %v", ctx, inc.OutrefDist, full.OutrefDist)
	}
	sortObjs := func(s []ids.ObjID) []ids.ObjID {
		out := append([]ids.ObjID(nil), s...)
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	sortRefs := func(s []ids.Ref) []ids.Ref {
		out := append([]ids.Ref(nil), s...)
		sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
		return out
	}
	if got, want := sortObjs(inc.Dead), sortObjs(full.Dead); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Dead diverges:\nincremental %v\nfull        %v", ctx, got, want)
	}
	if got, want := sortRefs(inc.Untraced), sortRefs(full.Untraced); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Untraced diverges:\nincremental %v\nfull        %v", ctx, got, want)
	}
	if got, want := sortRefs(inc.Missing), sortRefs(full.Missing); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Missing diverges:\nincremental %v\nfull        %v", ctx, got, want)
	}
	if !reflect.DeepEqual(inc.Back.Outsets, full.Back.Outsets) {
		t.Fatalf("%s: Back.Outsets diverges:\nincremental %v\nfull        %v", ctx, inc.Back.Outsets, full.Back.Outsets)
	}
	if !reflect.DeepEqual(inc.Back.Insets, full.Back.Insets) {
		t.Fatalf("%s: Back.Insets diverges:\nincremental %v\nfull        %v", ctx, inc.Back.Insets, full.Back.Insets)
	}
}

// TestIncrementalEquivalence is the exactness property test: over seeded
// randomized mutation sequences (mirroring the legal site flows — monotone
// mutations most rounds, occasional invalidating ones to exercise the
// fallback), every Incremental.Run result must be identical to the
// reference trace of a deep snapshot of the same state, at every worker
// count in {1, 2, 4, 8}. Dead objects are swept after each trace, as the
// site's commit does, which is what makes the incremental dead-set rule
// exact.
func TestIncrementalEquivalence(t *testing.T) {
	const (
		numSeeds  = 30
		rounds    = 15
		threshold = 2
	)
	for seed := int64(1); seed <= numSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			h := heap.New(1)
			tbl := refs.NewTable(1, threshold+2)
			h.EnableDeltaTracking()
			tbl.EnableDeltaTracking()
			// Tiny property-test heaps would constantly trip the dirty-ratio
			// knob; the point here is exactness of the remark, so disable it.
			inc := &Incremental{MaxDirtyRatio: 1e9, Full: Tracer{Workers: []int{1, 2, 4, 8}[seed%4]}}

			var objs []ids.Ref
			for i := 0; i < 4; i++ {
				objs = append(objs, h.AllocRoot())
			}
			remarks, fulls := 0, 0

			mutate := func(allowInvalidating bool) {
				op := rng.Intn(20)
				if !allowInvalidating && op >= 17 {
					op = rng.Intn(10) // remap to a monotone field add
				}
				switch op {
				case 0, 1, 2, 3:
					objs = append(objs, h.Alloc())
				case 4, 5, 6, 7, 8, 9:
					src := objs[rng.Intn(len(objs))]
					dst := objs[rng.Intn(len(objs))]
					_ = h.AddField(src.Obj, dst)
				case 10, 11:
					// New remote edge, with the outref the protocol creates.
					src := objs[rng.Intn(len(objs))]
					remote := ids.Ref{Site: 2, Obj: ids.ObjID(rng.Intn(30) + 1)}
					_ = h.AddField(src.Obj, remote)
					tbl.EnsureOutref(remote)
				case 12, 13:
					// New or improved inref (a reference arriving).
					obj := objs[rng.Intn(len(objs))]
					tbl.AddSource(obj.Obj, 3)
					tbl.SetSourceDistance(obj.Obj, 3, rng.Intn(threshold+3))
				case 14:
					// Improved inref distance only.
					obj := objs[rng.Intn(len(objs))]
					if in, ok := tbl.Inref(obj.Obj); ok {
						if d := in.Distance(); d > 0 {
							tbl.SetSourceDistance(obj.Obj, 3, d-1)
						}
					}
				case 15:
					h.AddAppRoot(objs[rng.Intn(len(objs))])
				case 16:
					// A variable holding a remote reference; the protocol
					// always creates the outref alongside it.
					remote := ids.Ref{Site: 2, Obj: ids.ObjID(rng.Intn(30) + 1)}
					h.AddAppRoot(remote)
					tbl.EnsureOutref(remote)
				case 17:
					// Invalidating: field removal.
					src := objs[rng.Intn(len(objs))]
					o, ok := h.Get(src.Obj)
					if ok && o.NumFields() > 0 {
						_, _ = h.RemoveField(src.Obj, o.Field(rng.Intn(o.NumFields())))
					}
				case 18:
					// Invalidating: inref worsened or dropped.
					obj := objs[rng.Intn(len(objs))]
					if rng.Intn(2) == 0 {
						tbl.RemoveSource(obj.Obj, 3)
					} else {
						tbl.FlagGarbage(obj.Obj)
					}
				case 19:
					// Invalidating: app root dropped.
					h.RemoveAppRoot(objs[rng.Intn(len(objs))])
				}
			}

			for round := 0; round < rounds; round++ {
				// Most rounds stay monotone so the remark path runs; every
				// fourth round may inject invalidating ops to exercise the
				// fallback and the recovery after it.
				allowInvalidating := round%4 == 3
				for step := 0; step < 15; step++ {
					mutate(allowInvalidating)
				}

				// Reference trace on an independent deep copy of the same state.
				want := referenceTrace(h.Snapshot(), tbl.Snapshot(), threshold, AlgoBottomUp)

				sh, hd := h.TraceSnapshot()
				stbl, td := tbl.TraceSnapshot()
				got := inc.Run(sh, stbl, hd, td, threshold, AlgoBottomUp)
				if got.Stats.Incremental {
					remarks++
				} else {
					fulls++
				}

				sameResult(t, fmt.Sprintf("seed %d round %d (incremental=%v reason=%q)",
					seed, round, got.Stats.Incremental, got.Stats.FallbackReason), got, want)

				// Commit as the site would: sweep every dead object. (Outref
				// trimming is skipped; it is invalidating and only forces
				// more full traces.)
				for _, obj := range got.Dead {
					h.Delete(obj)
					tbl.RemoveInref(obj)
				}
			}
			if remarks == 0 {
				t.Errorf("seed %d: no round took the incremental path (%d full)", seed, fulls)
			}
		})
	}
}

// TestIncrementalIdleReusesOutsets checks the memoization fast path: with no
// mutations at all between traces, the remark relaxes nothing and carries
// the previous back information over verbatim.
func TestIncrementalIdleReusesOutsets(t *testing.T) {
	const threshold = 2
	h := heap.New(1)
	tbl := refs.NewTable(1, threshold+2)
	h.EnableDeltaTracking()
	tbl.EnableDeltaTracking()

	// A suspected inref chain so the back info is non-trivial: in(5) → a → b
	// → remote outref.
	a, b := h.Alloc(), h.Alloc()
	remote := ids.Ref{Site: 2, Obj: 9}
	if err := h.AddField(a.Obj, b); err != nil {
		t.Fatal(err)
	}
	if err := h.AddField(b.Obj, remote); err != nil {
		t.Fatal(err)
	}
	tbl.EnsureOutref(remote)
	tbl.AddSource(a.Obj, 3)
	tbl.SetSourceDistance(a.Obj, 3, threshold+3)

	inc := &Incremental{MaxDirtyRatio: 1e9}
	sh, hd := h.TraceSnapshot()
	stbl, td := tbl.TraceSnapshot()
	first := inc.Run(sh, stbl, hd, td, threshold, AlgoBottomUp)
	if first.Stats.Incremental {
		t.Fatal("first run should be a full trace")
	}
	if len(first.Back.Outsets) == 0 {
		t.Fatal("setup produced no suspected inrefs")
	}

	sh, hd = h.TraceSnapshot()
	stbl, td = tbl.TraceSnapshot()
	second := inc.Run(sh, stbl, hd, td, threshold, AlgoBottomUp)
	if !second.Stats.Incremental {
		t.Fatalf("idle second run fell back: %q", second.Stats.FallbackReason)
	}
	if !second.Stats.OutsetsReused {
		t.Fatal("idle remark recomputed outsets")
	}
	if second.Back != first.Back {
		t.Fatal("idle remark did not reuse the previous BackInfo")
	}
	if second.Stats.DirtySeeds != 0 {
		t.Fatalf("idle remark had %d seeds", second.Stats.DirtySeeds)
	}

	// A mutation inside the suspect cone must force recomputation.
	c := h.Alloc()
	if err := h.AddField(b.Obj, c); err != nil {
		t.Fatal(err)
	}
	sh, hd = h.TraceSnapshot()
	stbl, td = tbl.TraceSnapshot()
	third := inc.Run(sh, stbl, hd, td, threshold, AlgoBottomUp)
	if !third.Stats.Incremental {
		t.Fatalf("third run fell back: %q", third.Stats.FallbackReason)
	}
	if third.Stats.OutsetsReused {
		t.Fatal("remark reused outsets despite a dirty edge in the suspect cone")
	}
}

// TestIncrementalFallbackReasons checks that each fallback condition names
// itself.
func TestIncrementalFallbackReasons(t *testing.T) {
	const threshold = 2
	h := heap.New(1)
	tbl := refs.NewTable(1, threshold+2)
	h.EnableDeltaTracking()
	tbl.EnableDeltaTracking()
	root := h.AllocRoot()

	inc := &Incremental{MaxDirtyRatio: 1e9}
	run := func() *Result {
		sh, hd := h.TraceSnapshot()
		stbl, td := tbl.TraceSnapshot()
		return inc.Run(sh, stbl, hd, td, threshold, AlgoBottomUp)
	}
	if r := run(); r.Stats.FallbackReason != "first-trace" {
		t.Fatalf("first run: reason %q", r.Stats.FallbackReason)
	}

	// Invalidating mutation.
	h.AddAppRoot(root)
	h.RemoveAppRoot(root)
	other := h.Alloc()
	if err := h.AddField(root.Obj, other); err != nil {
		t.Fatal(err)
	}
	if _, err := h.RemoveField(root.Obj, other); err != nil {
		t.Fatal(err)
	}
	// The cancelling pairs above leave no delta; now a real removal.
	if err := h.AddField(root.Obj, other); err != nil {
		t.Fatal(err)
	}
	if r := run(); r.Stats.Incremental != true {
		t.Fatalf("monotone round fell back: %q", r.Stats.FallbackReason)
	}
	if _, err := h.RemoveField(root.Obj, other); err != nil {
		t.Fatal(err)
	}
	if r := run(); r.Stats.FallbackReason != "invalidating-mutation" {
		t.Fatalf("removal round: reason %q", r.Stats.FallbackReason)
	}

	// Threshold change.
	sh, hd := h.TraceSnapshot()
	stbl, td := tbl.TraceSnapshot()
	if r := inc.Run(sh, stbl, hd, td, threshold+1, AlgoBottomUp); r.Stats.FallbackReason != "threshold-changed" {
		t.Fatalf("threshold round: reason %q", r.Stats.FallbackReason)
	}

	// Algorithm change.
	sh, hd = h.TraceSnapshot()
	stbl, td = tbl.TraceSnapshot()
	if r := inc.Run(sh, stbl, hd, td, threshold+1, AlgoIndependent); r.Stats.FallbackReason != "algorithm-changed" {
		t.Fatalf("algorithm round: reason %q", r.Stats.FallbackReason)
	}

	// Dirty ratio: flood the heap with changes.
	inc2 := &Incremental{MaxDirtyRatio: 0.01}
	h2 := heap.New(1)
	tbl2 := refs.NewTable(1, threshold+2)
	h2.EnableDeltaTracking()
	tbl2.EnableDeltaTracking()
	r2 := h2.AllocRoot()
	for i := 0; i < 50; i++ {
		h2.Alloc()
	}
	sh2, hd2 := h2.TraceSnapshot()
	stbl2, td2 := tbl2.TraceSnapshot()
	inc2.Run(sh2, stbl2, hd2, td2, threshold, AlgoBottomUp)
	for i := 0; i < 10; i++ {
		next := h2.Alloc()
		_ = h2.AddField(r2.Obj, next)
	}
	sh2, hd2 = h2.TraceSnapshot()
	stbl2, td2 = tbl2.TraceSnapshot()
	if r := inc2.Run(sh2, stbl2, hd2, td2, threshold, AlgoBottomUp); r.Stats.FallbackReason != "dirty-ratio" {
		t.Fatalf("flood round: reason %q", r.Stats.FallbackReason)
	}
}
