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

// fixture builds a single site's heap and tables for tracer tests.
type fixture struct {
	t   *testing.T
	h   *heap.Heap
	tbl *refs.Table
}

func newFixture(t *testing.T, site ids.SiteID) *fixture {
	t.Helper()
	return &fixture{t: t, h: heap.New(site), tbl: refs.NewTable(site, 100)}
}

func (f *fixture) obj() ids.Ref     { return f.h.Alloc() }
func (f *fixture) rootObj() ids.Ref { return f.h.AllocRoot() }
func (f *fixture) edge(from, to ids.Ref) {
	f.t.Helper()
	if err := f.h.AddField(from.Obj, to); err != nil {
		f.t.Fatal(err)
	}
	if to.Site != f.h.Site() {
		f.tbl.EnsureOutref(to)
	}
}

// inref registers a remote source for a local object at a given distance.
func (f *fixture) inref(obj ids.Ref, src ids.SiteID, dist int) {
	f.t.Helper()
	f.tbl.AddSource(obj.Obj, src)
	f.tbl.SetSourceDistance(obj.Obj, src, dist)
}

func refSlice(rs ...ids.Ref) []ids.Ref { return rs }

// isLive reports whether tr's last trace of h reached obj; isClean whether
// it reached obj from a root at distance <= threshold.
func isLive(tr *Tracer, h *heap.Heap, obj ids.ObjID) bool {
	_, ok := tr.markOf(h, obj)
	return ok
}

func isClean(tr *Tracer, h *heap.Heap, obj ids.ObjID, threshold int) bool {
	d, ok := tr.markOf(h, obj)
	return ok && d <= threshold
}

// sameMarks fails unless two tracers' last traces of h marked every heap
// object alike.
func sameMarks(t *testing.T, ctx string, h *heap.Heap, a, b *Tracer) {
	t.Helper()
	for _, obj := range heapObjects(h) {
		da, oka := a.markOf(h, obj)
		db, okb := b.markOf(h, obj)
		if da != db || oka != okb {
			t.Fatalf("%s: mark of %v differs: (%d,%v) vs (%d,%v)", ctx, obj, da, oka, db, okb)
		}
	}
}

func TestMarkSweepBasics(t *testing.T) {
	f := newFixture(t, 1)
	root := f.rootObj()
	a := f.obj()
	b := f.obj()
	dead := f.obj()
	f.edge(root, a)
	f.edge(a, b)

	tr := new(Tracer)
	res := tr.Run(f.h, f.tbl.Cut(), 2, AlgoBottomUp)
	if !isLive(tr, f.h, root.Obj) || !isLive(tr, f.h, a.Obj) || !isLive(tr, f.h, b.Obj) {
		t.Fatal("reachable objects not marked")
	}
	if isLive(tr, f.h, dead.Obj) {
		t.Fatal("unreachable object marked")
	}
	if len(res.Dead) != 1 || res.Dead[0] != dead.Obj {
		t.Fatalf("Dead = %v, want [%v]", res.Dead, dead.Obj)
	}
	if !isClean(tr, f.h, b.Obj, 2) {
		t.Fatal("object reachable from persistent root should be clean")
	}
}

func TestInrefIsRoot(t *testing.T) {
	f := newFixture(t, 1)
	a := f.obj()
	b := f.obj()
	f.edge(a, b)
	f.inref(a, 2, 1)

	tr := new(Tracer)
	tr.Run(f.h, f.tbl.Cut(), 2, AlgoBottomUp)
	if !isLive(tr, f.h, a.Obj) || !isLive(tr, f.h, b.Obj) {
		t.Fatal("objects reachable from inref must survive")
	}
	if !isClean(tr, f.h, b.Obj, 2) {
		t.Fatal("object reachable from clean inref (dist 1 <= threshold 2) should be clean")
	}
}

func TestGarbageFlaggedInrefIsNotRoot(t *testing.T) {
	f := newFixture(t, 1)
	a := f.obj()
	b := f.obj()
	f.edge(a, b)
	f.inref(a, 2, 1)
	in, _ := f.tbl.Inref(a.Obj)
	in.Garbage = true

	tr := new(Tracer)
	res := tr.Run(f.h, f.tbl.Cut(), 2, AlgoBottomUp)
	if isLive(tr, f.h, a.Obj) || isLive(tr, f.h, b.Obj) {
		t.Fatal("objects behind a garbage-flagged inref must die (Section 4.5)")
	}
	if len(res.Dead) != 2 {
		t.Fatalf("Dead = %v, want both objects", res.Dead)
	}
}

func TestAppRootsAreRoots(t *testing.T) {
	f := newFixture(t, 1)
	a := f.obj()
	b := f.obj()
	f.edge(a, b)
	f.h.AddAppRoot(a) // mutator variable holds a

	remote := ids.MakeRef(2, 7)
	f.tbl.EnsureOutref(remote)
	f.h.AddAppRoot(remote) // mutator variable holds a remote ref

	tr := new(Tracer)
	res := tr.Run(f.h, f.tbl.Cut(), 2, AlgoBottomUp)
	if !isClean(tr, f.h, a.Obj, 2) || !isClean(tr, f.h, b.Obj, 2) {
		t.Fatal("objects held by application roots must be clean (Section 6.3)")
	}
	if d, ok := res.OutrefDist[remote]; !ok || d != 1 {
		t.Fatalf("remote app root outref distance = %d (%v), want 1", d, ok)
	}
}

func TestDistancePropagation(t *testing.T) {
	// Two inrefs at distances 1 and 3 both reach outref r; a persistent
	// root reaches outref s. The outref distance is 1 + the smallest
	// root distance that reaches it.
	f := newFixture(t, 1)
	a := f.obj()
	b := f.obj()
	mid := f.obj()
	f.inref(a, 2, 1)
	f.inref(b, 3, 3)
	r := ids.MakeRef(4, 1)
	s := ids.MakeRef(4, 2)
	f.edge(a, mid)
	f.edge(b, mid)
	f.edge(mid, r)
	root := f.rootObj()
	f.edge(root, s)

	res := new(Tracer).Run(f.h, f.tbl.Cut(), 0, AlgoBottomUp)
	if d := res.OutrefDist[r]; d != 2 {
		t.Fatalf("outref r distance = %d, want 1+min(1,3)=2", d)
	}
	if d := res.OutrefDist[s]; d != 1 {
		t.Fatalf("outref s distance = %d, want 1 (root + one hop)", d)
	}
}

func TestDistanceSaturation(t *testing.T) {
	f := newFixture(t, 1)
	a := f.obj()
	f.inref(a, 2, refs.DistInfinity)
	r := ids.MakeRef(3, 1)
	f.edge(a, r)

	res := new(Tracer).Run(f.h, f.tbl.Cut(), 2, AlgoBottomUp)
	if d := res.OutrefDist[r]; d != refs.DistInfinity {
		t.Fatalf("distance = %d, want saturation at infinity", d)
	}
}

func TestUntracedOutrefsListed(t *testing.T) {
	f := newFixture(t, 1)
	a := f.obj() // unreachable; holds the only use of outref r
	r := ids.MakeRef(2, 5)
	f.edge(a, r)
	stale := ids.MakeRef(3, 9)
	f.tbl.EnsureOutref(stale) // no object references it at all

	res := new(Tracer).Run(f.h, f.tbl.Cut(), 2, AlgoBottomUp)
	want := refSlice(ids.MakeRef(2, 5), ids.MakeRef(3, 9))
	if !reflect.DeepEqual(res.Untraced, want) {
		t.Fatalf("Untraced = %v, want %v", res.Untraced, want)
	}
}

func TestMissingOutrefDetected(t *testing.T) {
	f := newFixture(t, 1)
	root := f.rootObj()
	r := ids.MakeRef(2, 5)
	// Bypass fixture.edge so no outref entry is created.
	if err := f.h.AddField(root.Obj, r); err != nil {
		t.Fatal(err)
	}
	res := new(Tracer).Run(f.h, f.tbl.Cut(), 2, AlgoBottomUp)
	if len(res.Missing) != 1 || res.Missing[0] != r {
		t.Fatalf("Missing = %v, want [%v]", res.Missing, r)
	}
}

// TestPhantomMarkNeverSuspected covers the outset pass reading the mark
// table: a marked, suspected object whose field names a local id the
// heap no longer holds leaves a phantom mark on that id. The phantom must
// not be swept (it is not in the heap), suspected, or reached by any
// outset; the suspect's real outset is unaffected.
func TestPhantomMarkNeverSuspected(t *testing.T) {
	for _, algo := range []OutsetAlgorithm{AlgoBottomUp, AlgoIndependent} {
		t.Run(algo.String(), func(t *testing.T) {
			f := newFixture(t, 1)
			a := f.obj()
			gone := f.obj()
			f.edge(a, gone)
			r := ids.MakeRef(2, 5)
			f.edge(a, r)
			f.inref(a, 2, 10) // suspected at threshold 2
			f.h.Delete(gone.Obj)

			tr := new(Tracer)
			res := tr.Run(f.h, f.tbl.Cut(), 2, algo)
			if tr.marks.load(gone.Obj) == 0 {
				t.Fatal("setup: the mark did not reach the absent id")
			}
			env := &outsetEnv{h: f.h, roots: f.tbl.Cut().Roots, marks: &tr.marks, outrefDist: res.OutrefDist, threshold: 2}
			if env.suspectedObj(gone.Obj) {
				t.Fatal("an id absent from the heap is suspected")
			}
			if !env.suspectedObj(a.Obj) {
				t.Fatal("the suspected inref's object is not suspected")
			}
			for _, obj := range res.Dead {
				if obj == gone.Obj {
					t.Fatal("an id absent from the heap is listed dead")
				}
			}
			if len(res.Back.Outsets) != 1 || !reflect.DeepEqual(res.Back.Outset(a.Obj), refSlice(r)) {
				t.Fatalf("outsets = %v, want only %v -> [%v]", res.Back.Outsets, a.Obj, r)
			}
			for out, inset := range res.Back.Insets {
				if !reflect.DeepEqual(inset, []ids.ObjID{a.Obj}) {
					t.Fatalf("inset of %v = %v, want [%v]", out, inset, a.Obj)
				}
			}
		})
	}
}

// TestFigure2Insets reproduces the paper's Figure 2 at site Q: inrefs a
// (from P) and b (from R), outrefs c and d, with a→c, b→c, b→d locally.
// The inset of outref c must be {a, b} and of d must be {b}.
func TestFigure2Insets(t *testing.T) {
	for _, algo := range []OutsetAlgorithm{AlgoBottomUp, AlgoIndependent} {
		t.Run(algo.String(), func(t *testing.T) {
			f := newFixture(t, 2) // site Q
			a := f.obj()
			b := f.obj()
			f.inref(a, 1, 10) // suspected (threshold below)
			f.inref(b, 3, 10)
			c := ids.MakeRef(1, 50) // object c in site P
			d := ids.MakeRef(3, 60) // object d in site R
			f.edge(a, c)
			f.edge(b, c)
			f.edge(b, d)

			res := new(Tracer).Run(f.h, f.tbl.Cut(), 2, algo)
			if got := res.Back.Inset(c); !reflect.DeepEqual(got, []ids.ObjID{a.Obj, b.Obj}) {
				t.Errorf("inset of c = %v, want [a b] = [%v %v]", got, a.Obj, b.Obj)
			}
			if got := res.Back.Inset(d); !reflect.DeepEqual(got, []ids.ObjID{b.Obj}) {
				t.Errorf("inset of d = %v, want [b] = [%v]", got, b.Obj)
			}
			if got := res.Back.Outset(a.Obj); !reflect.DeepEqual(got, refSlice(c)) {
				t.Errorf("outset of a = %v, want [c]", got)
			}
			if got := res.Back.Outset(b.Obj); !reflect.DeepEqual(got, refSlice(c, d)) {
				t.Errorf("outset of b = %v, want [c d]", got)
			}
		})
	}
}

// TestFigure4SharedTail reproduces the Figure 4 situation: inref a reaches
// outref c through z; inref b reaches z only through y (so a naive forward
// trace from b would stop at the already-marked z and miss c), and b also
// reaches outref d. Both algorithms must nevertheless compute the full
// reachability: inset(c) = {a, b}, inset(d) = {b}.
func TestFigure4SharedTail(t *testing.T) {
	for _, algo := range []OutsetAlgorithm{AlgoBottomUp, AlgoIndependent} {
		t.Run(algo.String(), func(t *testing.T) {
			f := newFixture(t, 2)
			a := f.obj()
			b := f.obj()
			z := f.obj()
			y := f.obj()
			f.inref(a, 1, 10)
			f.inref(b, 3, 10)
			c := ids.MakeRef(1, 70)
			d := ids.MakeRef(3, 80)
			f.edge(a, z)
			f.edge(z, c)
			f.edge(b, y)
			f.edge(y, z)
			f.edge(y, d)

			res := new(Tracer).Run(f.h, f.tbl.Cut(), 2, algo)
			if got := res.Back.Inset(c); !reflect.DeepEqual(got, []ids.ObjID{a.Obj, b.Obj}) {
				t.Errorf("inset of c = %v, want {a,b}", got)
			}
			if got := res.Back.Inset(d); !reflect.DeepEqual(got, []ids.ObjID{b.Obj}) {
				t.Errorf("inset of d = %v, want {b}", got)
			}
		})
	}
}

// TestFigure4BackEdgeSCC exercises the failure mode the paper fixes with
// strongly connected components: x → z → x is a cycle and only x references
// the outref c, so a naive bottom-up pass that finalizes Outset[z] before
// x completes would record null for z. Both inrefs (on x and on z) must
// see outset {c}.
func TestFigure4BackEdgeSCC(t *testing.T) {
	for _, algo := range []OutsetAlgorithm{AlgoBottomUp, AlgoIndependent} {
		t.Run(algo.String(), func(t *testing.T) {
			f := newFixture(t, 2)
			x := f.obj()
			z := f.obj()
			f.inref(x, 1, 10)
			f.inref(z, 3, 10)
			c := ids.MakeRef(1, 70)
			f.edge(x, z)
			f.edge(z, x) // back edge forming the SCC
			f.edge(x, c)

			res := new(Tracer).Run(f.h, f.tbl.Cut(), 2, algo)
			if got := res.Back.Outset(x.Obj); !reflect.DeepEqual(got, refSlice(c)) {
				t.Errorf("outset of x = %v, want {c}", got)
			}
			if got := res.Back.Outset(z.Obj); !reflect.DeepEqual(got, refSlice(c)) {
				t.Errorf("outset of z = %v, want {c} (SCC sharing)", got)
			}
			if got := res.Back.Inset(c); !reflect.DeepEqual(got, []ids.ObjID{x.Obj, z.Obj}) {
				t.Errorf("inset of c = %v, want {x,z}", got)
			}
		})
	}
}

func TestOutsetStopsAtCleanObjects(t *testing.T) {
	// A suspected inref whose only path to an outref passes through a
	// clean object: the outref is clean (reached from the clean root at
	// small distance), so the outset must be empty — "a back trace from a
	// live suspect does not spread to the clean parts of the object
	// graph" (Section 4.2).
	f := newFixture(t, 1)
	root := f.rootObj()
	mid := f.obj()
	sus := f.obj()
	r := ids.MakeRef(2, 5)
	f.edge(root, mid)
	f.edge(mid, r)
	f.edge(sus, mid)
	f.inref(sus, 2, 10) // suspected at threshold 2

	res := new(Tracer).Run(f.h, f.tbl.Cut(), 2, AlgoBottomUp)
	if got := res.Back.Outset(sus.Obj); len(got) != 0 {
		t.Fatalf("outset = %v, want empty (path goes through clean object)", got)
	}
	if d := res.OutrefDist[r]; d != 1 {
		t.Fatalf("outref distance = %d, want 1", d)
	}
}

func TestSuspectedInrefWithCleanObjectHasEmptyOutset(t *testing.T) {
	// The inref is suspected (distance 10) but its object is also
	// reachable from a persistent root, so the object itself is clean and
	// the outset must be empty.
	f := newFixture(t, 1)
	root := f.rootObj()
	a := f.obj()
	r := ids.MakeRef(2, 5)
	f.edge(root, a)
	f.edge(a, r)
	f.inref(a, 2, 10)

	res := new(Tracer).Run(f.h, f.tbl.Cut(), 2, AlgoBottomUp)
	if got := res.Back.Outset(a.Obj); len(got) != 0 {
		t.Fatalf("outset = %v, want empty", got)
	}
	if _, ok := res.Back.Outsets[a.Obj]; !ok {
		t.Fatal("suspected inref should still have an (empty) outset entry")
	}
}

func TestOutsetSharingInChainAndSCC(t *testing.T) {
	// A long chain and a large SCC must share canonical outset storage:
	// "objects arranged in a chain or a strongly connected component have
	// the same outset" (Section 5.2). We verify via the memo-hit counter
	// and by checking slice identity of the shared outsets.
	f := newFixture(t, 1)
	const n = 50
	objs := make([]ids.Ref, n)
	for i := range objs {
		objs[i] = f.obj()
	}
	for i := 0; i+1 < n; i++ {
		f.edge(objs[i], objs[i+1])
	}
	r := ids.MakeRef(2, 5)
	f.edge(objs[n-1], r)
	// Inrefs on every chain element, all suspected.
	for i, o := range objs {
		f.inref(o, 2, 10+i)
	}

	res := new(Tracer).Run(f.h, f.tbl.Cut(), 2, AlgoBottomUp)
	first := res.Back.Outset(objs[0].Obj)
	if len(first) != 1 || first[0] != r {
		t.Fatalf("outset of chain head = %v, want {r}", first)
	}
	for _, o := range objs {
		got := res.Back.Outset(o.Obj)
		if len(got) != 1 || got[0] != r {
			t.Fatalf("outset of %v = %v, want {r}", o, got)
		}
		if &got[0] != &first[0] {
			t.Fatal("equal outsets do not share canonical storage")
		}
	}
}

func TestIndependentRetracesButBottomUpDoesNot(t *testing.T) {
	// A diamond fan: k suspected inrefs all reaching one long shared tail.
	// The independent algorithm retraces the tail per inref; bottom-up
	// scans each object once.
	f := newFixture(t, 1)
	const k, tail = 10, 100
	heads := make([]ids.Ref, k)
	for i := range heads {
		heads[i] = f.obj()
		f.inref(heads[i], 2, 10)
	}
	prev := f.obj()
	for i := range heads {
		f.edge(heads[i], prev)
	}
	for i := 0; i < tail; i++ {
		next := f.obj()
		f.edge(prev, next)
		prev = next
	}
	r := ids.MakeRef(2, 5)
	f.edge(prev, r)

	ind := new(Tracer).Run(f.h, f.tbl.Cut(), 2, AlgoIndependent)
	bu := new(Tracer).Run(f.h, f.tbl.Cut(), 2, AlgoBottomUp)
	if ind.Stats.OutsetRetraced == 0 {
		t.Error("independent algorithm reported zero retraced objects on a shared tail")
	}
	if bu.Stats.OutsetVisits > int64(k+tail+2) {
		t.Errorf("bottom-up visited %d objects, want <= %d (each once)", bu.Stats.OutsetVisits, k+tail+2)
	}
	for _, h := range heads {
		if !reflect.DeepEqual(ind.Back.Outset(h.Obj), bu.Back.Outset(h.Obj)) {
			t.Fatal("algorithms disagree on outsets")
		}
	}
}

// buildRandomSite constructs a random single-site graph with remote edges
// and random inref distances, for the cross-algorithm property test.
func buildRandomSite(rng *rand.Rand, nObjs, nEdges, nInrefs, nRemote int) (*heap.Heap, *refs.Table) {
	h := heap.New(1)
	tbl := refs.NewTable(1, 100)
	objs := make([]ids.Ref, nObjs)
	for i := range objs {
		objs[i] = h.Alloc()
	}
	if rng.Intn(2) == 0 && nObjs > 0 {
		h.MarkPersistentRoot(objs[0].Obj)
	}
	for i := 0; i < nEdges; i++ {
		from := objs[rng.Intn(nObjs)]
		to := objs[rng.Intn(nObjs)]
		h.AddField(from.Obj, to)
	}
	for i := 0; i < nRemote; i++ {
		from := objs[rng.Intn(nObjs)]
		target := ids.MakeRef(ids.SiteID(2+rng.Intn(3)), ids.ObjID(1+rng.Intn(20)))
		h.AddField(from.Obj, target)
		tbl.EnsureOutref(target)
	}
	for i := 0; i < nInrefs; i++ {
		obj := objs[rng.Intn(nObjs)]
		src := ids.SiteID(2 + rng.Intn(3))
		tbl.AddSource(obj.Obj, src)
		tbl.SetSourceDistance(obj.Obj, src, rng.Intn(10))
	}
	return h, tbl
}

func TestOutsetAlgorithmsAgreeOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		nObjs := 1 + rng.Intn(40)
		h, tbl := buildRandomSite(rng, nObjs, rng.Intn(3*nObjs), rng.Intn(nObjs+1), rng.Intn(10))
		threshold := rng.Intn(6)
		indTr, buTr := new(Tracer), new(Tracer)
		ind := indTr.Run(h, tbl.Cut(), threshold, AlgoIndependent)
		bu := buTr.Run(h, tbl.Cut(), threshold, AlgoBottomUp)

		if len(ind.Back.Outsets) != len(bu.Back.Outsets) {
			t.Fatalf("iter %d: outset counts differ: %d vs %d", iter, len(ind.Back.Outsets), len(bu.Back.Outsets))
		}
		for in, want := range ind.Back.Outsets {
			got := bu.Back.Outsets[in]
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d: outset of inref %v differs: independent=%v bottom-up=%v", iter, in, want, got)
			}
		}
		sameMarks(t, fmt.Sprintf("iter %d", iter), h, indTr, buTr)
	}
}

func TestBackInfoInsetsMatchOutsets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 100; iter++ {
		nObjs := 1 + rng.Intn(30)
		h, tbl := buildRandomSite(rng, nObjs, rng.Intn(3*nObjs), rng.Intn(nObjs+1), rng.Intn(8))
		res := new(Tracer).Run(h, tbl.Cut(), rng.Intn(5), AlgoBottomUp)
		// Every (inref, outref) pair must appear in both views.
		pairs := 0
		for in, outs := range res.Back.Outsets {
			for _, o := range outs {
				pairs++
				found := false
				for _, back := range res.Back.Inset(o) {
					if back == in {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("iter %d: pair (%v,%v) missing from insets", iter, in, o)
				}
			}
		}
		if got := res.Back.Entries(); got != pairs {
			t.Fatalf("iter %d: Entries() = %d, want %d", iter, got, pairs)
		}
	}
}

func TestEmptyBackInfo(t *testing.T) {
	bi := EmptyBackInfo()
	if bi.Entries() != 0 || bi.Outset(1) != nil || bi.Inset(ids.MakeRef(1, 1)) != nil {
		t.Fatal("EmptyBackInfo not empty")
	}
}

func TestRunOnEmptySite(t *testing.T) {
	h := heap.New(1)
	tbl := refs.NewTable(1, 100)
	res := new(Tracer).Run(h, tbl.Cut(), 2, AlgoBottomUp)
	if len(res.Dead) != 0 || res.Stats.ObjectsTraced != 0 || res.Back.Entries() != 0 {
		t.Fatal("empty site produced non-empty trace result")
	}
}

func TestAlgorithmString(t *testing.T) {
	if AlgoBottomUp.String() != "bottom-up" || AlgoIndependent.String() != "independent" {
		t.Fatal("algorithm names wrong")
	}
	if OutsetAlgorithm(9).String() == "" {
		t.Fatal("unknown algorithm name empty")
	}
}
