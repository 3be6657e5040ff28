package cluster

import (
	"math/rand"
	"testing"

	"backtrace/internal/ids"
	"backtrace/internal/msg"
)

// figure5 is the object graph of the paper's Figures 5 and 6:
//
//	root a@P -> b@Q -> c@R -> d@S -> e@R -> f@Q -> x@Q -> z@Q -> g@P
//	                                  f is suspected; b..d clean; y@Q with b -> y
//
// The mutation under study: the mutator traverses the old path to z,
// copies z into y (a new path from the clean region), then a reference on
// the old path is deleted. A back trace racing with this mutation must
// never cause a live object to be collected.
type figure5 struct {
	c          *Cluster
	a, g       ids.Ref // site P (1)
	b, f, x, y ids.Ref // site Q (2)
	z          ids.Ref
	cc, e      ids.Ref // site R (3)
	d          ids.Ref // site S (4)
}

func buildFigure5(t *testing.T, mod ...func(*Options)) *figure5 {
	t.Helper()
	opts := defaultOpts(4)
	opts.Site.AutoBackTrace = false
	opts.Site.BackThreshold = 1 << 20 // traces started manually
	for _, m := range mod {
		m(&opts)
	}
	c := New(opts)

	fx := &figure5{c: c}
	p, q, r, s := c.Site(1), c.Site(2), c.Site(3), c.Site(4)
	fx.a = p.NewRootObject()
	fx.g = p.NewObject()
	fx.b = q.NewObject()
	fx.f = q.NewObject()
	fx.x = q.NewObject()
	fx.y = q.NewObject()
	fx.z = q.NewObject()
	fx.cc = r.NewObject()
	fx.e = r.NewObject()
	fx.d = s.NewObject()

	c.MustLink(fx.a, fx.b)  // P -> Q
	c.MustLink(fx.b, fx.y)  // local at Q
	c.MustLink(fx.b, fx.cc) // Q -> R
	c.MustLink(fx.cc, fx.d) // R -> S
	c.MustLink(fx.d, fx.e)  // S -> R
	c.MustLink(fx.e, fx.f)  // R -> Q
	c.MustLink(fx.f, fx.x)  // local at Q
	c.MustLink(fx.x, fx.z)  // local at Q
	c.MustLink(fx.z, fx.g)  // Q -> P

	// Propagate distances until the far end of the chain is suspected:
	// b:1 c:2 d:3 (clean at T=3), e:4 f:5 g:6 (suspected).
	c.RunRounds(8)
	return fx
}

func (fx *figure5) assertSetup(t *testing.T) {
	t.Helper()
	q, r := fx.c.Site(2), fx.c.Site(3)
	if d := r.InrefDistance(fx.e.Obj); d != 4 {
		t.Fatalf("distance of e = %d, want 4", d)
	}
	if d := q.InrefDistance(fx.f.Obj); d != 5 {
		t.Fatalf("distance of f = %d, want 5", d)
	}
	if d := fx.c.Site(1).InrefDistance(fx.g.Obj); d != 6 {
		t.Fatalf("distance of g = %d, want 6", d)
	}
	// Stale-info precondition of the race: inset(outref g) at Q is {f}.
	for _, o := range q.Outrefs() {
		if o.Target == fx.g {
			if len(o.Inset) != 1 || o.Inset[0] != fx.f.Obj {
				t.Fatalf("inset of outref g = %v, want {f}", o.Inset)
			}
			if o.Clean {
				t.Fatal("outref g unexpectedly clean")
			}
		}
	}
}

// mutate performs the Figure 5 mutation through the mutator API: traverse
// the old path (firing transfer barriers at R and Q), copy z into y, then
// delete the old-path reference d->e at S.
func (fx *figure5) mutate(t *testing.T, settleBetween bool) {
	t.Helper()
	q, r, s := fx.c.Site(2), fx.c.Site(3), fx.c.Site(4)
	step := func() {
		if settleBetween {
			fx.c.Settle()
		}
	}
	// Traverse d -> e (arriving at R) and e -> f (arriving at Q).
	if err := s.Traverse(fx.e); err != nil {
		t.Fatal(err)
	}
	step()
	if err := r.Traverse(fx.f); err != nil {
		t.Fatal(err)
	}
	step()
	// At Q, holding f: read x, z and copy z into y (a local copy).
	if err := q.AddReference(fx.y.Obj, fx.z); err != nil {
		t.Fatal(err)
	}
	// Delete the old-path reference d -> e.
	if err := s.RemoveReference(fx.d.Obj, fx.e); err != nil {
		t.Fatal(err)
	}
	// The mutator drops its traversal variables: the hold on e it gained
	// arriving at R, and the hold on f it gained arriving at Q.
	r.DropAppRoot(fx.e)
	q.DropAppRoot(fx.f)
	step()
}

// liveAfterMutation lists the objects that must survive: everything except
// e, f, x (which the deletion disconnected).
func (fx *figure5) liveAfterMutation() []ids.Ref {
	return []ids.Ref{fx.a, fx.b, fx.cc, fx.d, fx.y, fx.z, fx.g}
}

func (fx *figure5) assertSafety(t *testing.T) {
	t.Helper()
	for _, ref := range fx.liveAfterMutation() {
		if !fx.c.Site(ref.Site).ContainsObject(ref.Obj) {
			t.Fatalf("live object %v was collected", ref)
		}
	}
}

// TestFigure5TraceActiveWhenMutatorArrives replays the overlap the clean
// rule exists for: the back trace is active at inref f when the mutator's
// traversal reaches Q; the transfer barrier cleans f, and the clean rule
// must force the trace's outcome to Live.
func TestFigure5TraceActiveWhenMutatorArrives(t *testing.T) {
	fx := buildFigure5(t)
	defer fx.c.Close()
	fx.assertSetup(t)
	q := fx.c.Site(2)

	// Start the back trace from Q's outref to g. It immediately visits
	// outref g and inref f locally, then waits on a BackCall to R.
	trace, ok := q.StartBackTrace(fx.g)
	if !ok {
		t.Fatal("back trace did not start")
	}
	if q.ActiveFrames() == 0 {
		t.Fatal("expected the trace to be active at Q")
	}

	// The mutator overtakes: its traversal message for f arrives at Q
	// while the trace is active at inref f. Do not deliver the trace's
	// own messages yet.
	r := fx.c.Site(3)
	if err := r.Traverse(fx.f); err != nil {
		t.Fatal(err)
	}
	delivered := fx.c.Net().DeliverMatching(func(e msg.Envelope) bool {
		_, isTransfer := e.M.(msg.RefTransfer)
		return isTransfer
	})
	if delivered != 1 {
		t.Fatalf("delivered %d transfers, want 1", delivered)
	}

	// Clean rule: the trace must have completed Live already.
	roots := rootSpans(fx.c, q.ID())
	if len(roots) != 1 || roots[0].Trace != trace || roots[0].Verdict != msg.VerdictLive {
		t.Fatalf("root spans = %+v, want one immediate-Live root for %v", roots, trace)
	}
	if len(q.GarbageFlaggedInrefs()) != 0 {
		t.Fatal("live chain flagged garbage")
	}

	// Finish the mutation and let everything settle; no live object may
	// ever be collected, and the disconnected e, f, x must eventually go.
	if err := q.AddReference(fx.y.Obj, fx.z); err != nil {
		t.Fatal(err)
	}
	if err := fx.c.Site(4).RemoveReference(fx.d.Obj, fx.e); err != nil {
		t.Fatal(err)
	}
	r.DropAppRoot(fx.f)
	q.DropAppRoot(fx.f)
	fx.c.Settle()

	rounds, _ := fx.c.CollectUntilStable(40)
	t.Logf("stable after %d rounds", rounds)
	fx.assertSafety(t)
	if fx.c.GarbageCount() != 0 {
		t.Fatalf("garbage left: %d", fx.c.GarbageCount())
	}
	for _, ref := range []ids.Ref{fx.e, fx.f, fx.x} {
		if fx.c.Site(ref.Site).ContainsObject(ref.Obj) {
			t.Errorf("disconnected object %v not collected", ref)
		}
	}
}

// TestFigure5MutatorFirstThenTrace: the mutation completes (with barriers
// applied) before any back trace starts. The barrier-cleaned outref g must
// refuse to start a trace, and after local traces refresh the back
// information, g is clean by distance (reachable via b->y->z->g).
func TestFigure5MutatorFirstThenTrace(t *testing.T) {
	fx := buildFigure5(t)
	defer fx.c.Close()
	fx.assertSetup(t)
	q := fx.c.Site(2)

	fx.mutate(t, true)

	// The transfer barrier cleaned outref g: no trace can start.
	if _, ok := q.StartBackTrace(fx.g); ok {
		t.Fatal("trace started from a barrier-cleaned outref")
	}

	fx.c.RunRounds(6)
	// After refresh, outref g is clean by distance (2 hops from root via
	// the new path), still no trace, and the old-path garbage is gone.
	if _, ok := q.StartBackTrace(fx.g); ok {
		t.Fatal("trace started from a clean-by-distance outref")
	}
	fx.assertSafety(t)
	for _, ref := range []ids.Ref{fx.e, fx.f, fx.x} {
		if fx.c.Site(ref.Site).ContainsObject(ref.Obj) {
			t.Errorf("disconnected object %v not collected", ref)
		}
	}
}

// TestFigure6RandomInterleavings drives the Figure 5/6 race through many
// random interleavings of message delivery, mutator steps, and local
// traces. Whatever the schedule, no live object may ever be collected
// (safety), and once the dust settles all garbage must go (completeness).
func TestFigure6RandomInterleavings(t *testing.T) {
	const seeds = 60
	for seed := int64(1); seed <= seeds; seed++ {
		func() {
			fx := buildFigure5(t)
			defer fx.c.Close()
			rng := rand.New(rand.NewSource(seed))
			q, r, s := fx.c.Site(2), fx.c.Site(3), fx.c.Site(4)

			// The pool of pending actions: mutator steps (in order),
			// trace starts, local traces, and message deliveries.
			mutatorSteps := []func(){
				func() { _ = s.Traverse(fx.e) },
				func() { _ = r.Traverse(fx.f) },
				func() { _ = q.AddReference(fx.y.Obj, fx.z) },
				func() { _ = s.RemoveReference(fx.d.Obj, fx.e) },
				func() { r.DropAppRoot(fx.e); q.DropAppRoot(fx.f) },
			}
			nextMutator := 0
			tracesStarted := 0

			for step := 0; step < 200; step++ {
				switch rng.Intn(5) {
				case 0: // deliver a random pending message
					n := fx.c.Net().PendingCount()
					if n > 0 {
						fx.c.Net().DeliverIndex(rng.Intn(n))
					}
				case 1: // advance the mutator
					if nextMutator < len(mutatorSteps) {
						mutatorSteps[nextMutator]()
						nextMutator++
					}
				case 2: // start a back trace from a suspected outref
					if tracesStarted < 3 {
						site := fx.c.Site(ids.SiteID(1 + rng.Intn(4)))
						for _, o := range site.Outrefs() {
							if !o.Clean {
								site.StartBackTrace(o.Target)
								tracesStarted++
								break
							}
						}
					}
				case 3: // run a local trace somewhere
					fx.c.Site(ids.SiteID(1 + rng.Intn(4))).RunLocalTrace()
				case 4: // split local trace: begin now, commit later
					site := fx.c.Site(ids.SiteID(1 + rng.Intn(4)))
					site.BeginLocalTrace()
					// interleave one random delivery before commit
					if n := fx.c.Net().PendingCount(); n > 0 && rng.Intn(2) == 0 {
						fx.c.Net().DeliverIndex(rng.Intn(n))
					}
					site.CommitLocalTrace()
				}
			}
			// Finish the mutation and drain everything.
			for ; nextMutator < len(mutatorSteps); nextMutator++ {
				mutatorSteps[nextMutator]()
			}
			fx.c.Settle()
			rounds, _ := fx.c.CollectUntilStable(50)

			// Safety: the post-mutation live set survived.
			for _, ref := range fx.liveAfterMutation() {
				if !fx.c.Site(ref.Site).ContainsObject(ref.Obj) {
					t.Fatalf("seed %d: live object %v collected (after %d rounds)", seed, ref, rounds)
				}
			}
			// Completeness: nothing unreachable is left.
			if g := fx.c.GarbageCount(); g != 0 {
				t.Fatalf("seed %d: %d garbage objects not collected", seed, g)
			}
			if got := fx.c.InvariantViolations(); len(got) != 0 {
				t.Fatalf("seed %d: invariants: %v", seed, got)
			}
		}()
	}
}
