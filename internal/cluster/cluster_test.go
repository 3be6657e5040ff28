package cluster

import (
	"testing"

	"backtrace/internal/ids"
	"backtrace/internal/refs"
	"backtrace/internal/site"
)

// defaultOpts builds small deterministic clusters for tests.
func defaultOpts(n int) Options {
	return Options{
		NumSites: n,
		Site: site.Config{
			SuspicionThreshold: 3,
			BackThreshold:      7,
			ThresholdBump:      4,
			AutoBackTrace:      true,
		},
	}
}

func TestLinkEstablishesProtocolState(t *testing.T) {
	c := New(defaultOpts(2))
	defer c.Close()
	p := c.Site(1)
	q := c.Site(2)

	a := p.NewRootObject()
	b := q.NewObject()
	c.MustLink(a, b)

	if p.NumOutrefs() != 1 {
		t.Fatalf("P outrefs = %d, want 1", p.NumOutrefs())
	}
	ins := q.Inrefs()
	if len(ins) != 1 || ins[0].Obj != b.Obj {
		t.Fatalf("Q inrefs = %+v, want one for b", ins)
	}
	if len(ins[0].Sources) != 1 || ins[0].Sources[0] != 1 {
		t.Fatalf("Q inref sources = %v, want [S1]", ins[0].Sources)
	}
	if got := c.InvariantViolations(); len(got) != 0 {
		t.Fatalf("invariant violations: %v", got)
	}
}

func TestAcyclicRemoteGarbageCollectedByLocalTracing(t *testing.T) {
	// The d -> e example of Figure 1: Q holds garbage d referencing e at
	// P. Q's first trace collects d and trims the outref; the update
	// message removes P's inref; P's next trace collects e. No back
	// tracing involved.
	c := New(defaultOpts(2))
	defer c.Close()
	p := c.Site(1)
	q := c.Site(2)

	e := p.NewObject()
	d := q.NewObject()
	c.MustLink(d, e)
	// d has no root: both objects are garbage.

	if q.RunLocalTrace().Collected != 1 {
		t.Fatal("Q did not collect d")
	}
	c.Settle() // update message removes P's inref for e
	if p.NumInrefs() != 0 {
		t.Fatalf("P inrefs = %d after update, want 0", p.NumInrefs())
	}
	if p.RunLocalTrace().Collected != 1 {
		t.Fatal("P did not collect e")
	}
	if c.TotalObjects() != 0 {
		t.Fatalf("objects left: %d", c.TotalObjects())
	}
}

// TestFigure1EndToEnd reproduces the paper's Figure 1 in full: persistent
// root a at P; live chain a->b->c with c reachable over two paths; garbage
// d->e collected by plain local tracing; and the inter-site garbage cycle
// f<->g that local tracing can never collect, eventually confirmed by a
// back trace and reclaimed.
func TestFigure1EndToEnd(t *testing.T) {
	c := New(defaultOpts(3))
	defer c.Close()
	p := c.Site(1) // P
	q := c.Site(2) // Q
	r := c.Site(3) // R

	a := p.NewRootObject()
	e := p.NewObject()
	b := q.NewObject()
	f := q.NewObject()
	d := q.NewObject()
	cc := r.NewObject()
	g := r.NewObject()

	c.MustLink(a, b)  // P -> Q
	c.MustLink(a, cc) // P -> R (the one-hop path to c)
	c.MustLink(b, cc) // Q -> R (the two-hop path)
	c.MustLink(d, e)  // Q -> P (acyclic garbage)
	c.MustLink(f, g)  // Q -> R (cycle)
	c.MustLink(g, f)  // R -> Q (cycle)

	live := c.GlobalLive()
	if len(live) != 3 {
		t.Fatalf("setup: live = %d objects, want 3 (a, b, c)", len(live))
	}
	if got := c.GarbageCount(); got != 4 {
		t.Fatalf("setup: garbage = %d, want 4 (d, e, f, g)", got)
	}

	rounds, collected := c.CollectUntilStable(30)
	t.Logf("stable after %d rounds, %d collected", rounds, collected)

	if collected != 4 {
		t.Fatalf("collected %d objects, want 4", collected)
	}
	if c.TotalObjects() != 3 {
		t.Fatalf("objects remaining = %d, want 3", c.TotalObjects())
	}
	if !p.ContainsObject(a.Obj) || !q.ContainsObject(b.Obj) || !r.ContainsObject(cc.Obj) {
		t.Fatal("a live object was collected")
	}
	for _, s := range c.Sites() {
		if s.ContainsObject(f.Obj) && s.ID() == 2 {
			t.Error("cycle member f survived")
		}
		if s.ContainsObject(g.Obj) && s.ID() == 3 {
			t.Error("cycle member g survived")
		}
	}
	// The distance of c is 1: the direct path P->R has one inter-site
	// reference (Figure 1's worked example).
	if got := r.InrefDistance(cc.Obj); got != 1 {
		t.Errorf("distance of c = %d, want 1", got)
	}
	if got := c.InvariantViolations(); len(got) != 0 {
		t.Fatalf("invariant violations after collection: %v", got)
	}
}

// TestDistanceTheorem checks Section 3's theorem: d rounds after a cycle
// becomes garbage, the estimated distances of all its iorefs are at least
// d (each round every site does one local trace).
func TestDistanceTheorem(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		opts := defaultOpts(n)
		opts.Site.AutoBackTrace = false // isolate distance propagation
		opts.Site.BackThreshold = 1 << 20
		c := New(opts)
		objs := c.BuildRing()

		for round := 1; round <= 8; round++ {
			c.RunRound()
			for i, obj := range objs {
				d := c.Site(obj.Site).InrefDistance(obj.Obj)
				if d < round {
					t.Fatalf("n=%d round=%d: inref %d distance=%d < round", n, round, i, d)
				}
			}
		}
		c.Close()
	}
}

func TestCycleCollectedAcrossSizes(t *testing.T) {
	for _, n := range []int{2, 3, 4, 6} {
		c := New(defaultOpts(n))
		c.BuildRing()
		if got := c.GarbageCount(); got != n {
			t.Fatalf("n=%d: setup garbage = %d", n, got)
		}
		_, collected := c.CollectUntilStable(40)
		if collected != n {
			t.Fatalf("n=%d: collected %d, want %d", n, collected, n)
		}
		if c.TotalObjects() != 0 {
			t.Fatalf("n=%d: %d objects left", n, c.TotalObjects())
		}
		if got := c.InvariantViolations(); len(got) != 0 {
			t.Fatalf("n=%d: invariants: %v", n, got)
		}
		c.Close()
	}
}

func TestLiveCycleNeverCollected(t *testing.T) {
	// A cross-site cycle that IS reachable from a root must survive any
	// number of rounds and back traces.
	c := New(defaultOpts(3))
	defer c.Close()
	root := c.Site(1).NewRootObject()
	objs := c.BuildRing()
	c.MustLink(root, objs[1]) // root -> ring member at site 2

	c.RunRounds(25)
	for _, o := range objs {
		if !c.Site(o.Site).ContainsObject(o.Obj) {
			t.Fatalf("live cycle member %v was collected", o)
		}
	}
	if got := c.InvariantViolations(); len(got) != 0 {
		t.Fatalf("invariants: %v", got)
	}
}

// TestLocalityCrash checks the locality property (C7): a crashed site
// delays only the garbage reachable from its objects. Cycle A spans sites
// 1-2, cycle B spans sites 3-4; with site 4 crashed, cycle A is still
// collected.
func TestLocalityCrash(t *testing.T) {
	c := New(defaultOpts(4))
	defer c.Close()

	a1 := c.Site(1).NewObject()
	a2 := c.Site(2).NewObject()
	c.MustLink(a1, a2)
	c.MustLink(a2, a1)
	b3 := c.Site(3).NewObject()
	b4 := c.Site(4).NewObject()
	c.MustLink(b3, b4)
	c.MustLink(b4, b3)

	c.Net().Crash(4)

	// Run rounds on the surviving sites only.
	for round := 0; round < 25; round++ {
		for _, id := range []ids.SiteID{1, 2, 3} {
			c.Site(id).RunLocalTrace()
			c.Settle()
		}
	}

	if c.Site(1).ContainsObject(a1.Obj) || c.Site(2).ContainsObject(a2.Obj) {
		t.Fatal("cycle A (disjoint from crashed site) was not collected")
	}
	if !c.Site(3).ContainsObject(b3.Obj) {
		t.Fatal("cycle B member collected despite crashed participant (should merely be delayed)")
	}

	// After the site comes back, cycle B is collected too.
	c.Net().Restart(4)
	for round := 0; round < 25; round++ {
		c.RunRound()
	}
	if c.Site(3).ContainsObject(b3.Obj) || c.Site(4).ContainsObject(b4.Obj) {
		t.Fatal("cycle B not collected after restart")
	}
}

// TestBackInfoSpaceBound checks the O(ni*no) bound on stored back
// information (C4).
func TestBackInfoSpaceBound(t *testing.T) {
	opts := defaultOpts(3)
	opts.Site.AutoBackTrace = false
	opts.Site.BackThreshold = 1 << 20
	c := New(opts)
	defer c.Close()

	// Several interleaved garbage rings to create many suspected iorefs.
	for k := 0; k < 5; k++ {
		c.BuildRing()
	}
	c.RunRounds(8) // distances beyond the threshold: everything suspected

	for _, s := range c.Sites() {
		ni := 0
		for _, in := range s.Inrefs() {
			if !in.Clean {
				ni++
			}
		}
		no := 0
		for _, o := range s.Outrefs() {
			if !o.Clean {
				no++
			}
		}
		entries := s.BackInfoEntries()
		if entries > ni*no {
			t.Errorf("site %v: back info entries %d > ni*no = %d*%d", s.ID(), entries, ni, no)
		}
		if ni > 0 && no > 0 && entries == 0 {
			t.Errorf("site %v: suspected iorefs but empty back info", s.ID())
		}
	}
}

func TestPersistentRootDemotionCreatesCollectableGarbage(t *testing.T) {
	// A live cross-site structure becomes garbage when its root is
	// demoted; the collector must then reclaim it, including its cycle.
	c := New(defaultOpts(2))
	defer c.Close()
	root := c.Site(1).NewRootObject()
	x := c.Site(1).NewObject()
	y := c.Site(2).NewObject()
	c.MustLink(root, x)
	c.MustLink(x, y)
	c.MustLink(y, x) // cycle x <-> y
	c.RunRounds(3)
	if c.TotalObjects() != 3 {
		t.Fatalf("setup: %d objects, want 3", c.TotalObjects())
	}

	c.Site(1).UnmarkPersistentRoot(root.Obj)
	_, collected := c.CollectUntilStable(40)
	if collected != 3 {
		t.Fatalf("collected %d, want 3", collected)
	}
}

func TestAppRootKeepsRemoteObjectAlive(t *testing.T) {
	c := New(defaultOpts(2))
	defer c.Close()
	y := c.Site(2).NewObject()
	// Site 1's mutator receives the reference and holds it in a variable.
	if err := c.Site(2).SendRef(1, y); err != nil {
		t.Fatal(err)
	}
	c.Settle()

	c.RunRounds(6)
	if !c.Site(2).ContainsObject(y.Obj) {
		t.Fatal("object held only by a remote application root was collected")
	}

	c.Site(1).DropAppRoot(y)
	_, collected := c.CollectUntilStable(20)
	if collected != 1 {
		t.Fatalf("collected %d after dropping app root, want 1", collected)
	}
}

func TestPinnedOutrefSurvivesTrim(t *testing.T) {
	// While a reference transfer is in flight (insert message undelivered)
	// the sender's outref must survive local traces even if nothing else
	// references it (the insert barrier).
	c := New(defaultOpts(3))
	defer c.Close()
	y := c.Site(2).NewObject()
	if err := c.Site(2).SendRef(1, y); err != nil {
		t.Fatal(err)
	}
	c.Settle()
	// Site 1 now holds y (app root + outref). Forward it to site 3 but do
	// NOT deliver the transfer yet; drop site 1's own holds right after.
	if err := c.Site(1).SendRef(3, y); err != nil {
		t.Fatal(err)
	}
	c.Site(1).DropAppRoot(y)

	// Site 1's outref is pinned: a local trace must not trim it.
	c.Site(1).RunLocalTrace()
	if c.Site(1).NumOutrefs() != 1 {
		t.Fatal("pinned outref was trimmed while transfer in flight")
	}

	// Deliver the transfer; site 3 inserts itself; pins release.
	c.Settle()
	outs := c.Site(1).Outrefs()
	if len(outs) != 1 || outs[0].Pinned {
		t.Fatalf("pin not released after insert completed: %+v", outs)
	}
	// y must be alive and now protected by site 3's source-list entry.
	if !c.Site(2).ContainsObject(y.Obj) {
		t.Fatal("object collected during hand-off")
	}
	ins := c.Site(2).Inrefs()
	if len(ins) != 1 || len(ins[0].Sources) != 2 {
		t.Fatalf("owner source list = %+v, want sites 1 and 3", ins)
	}

	// After site 1 drops everything and traces, its outref goes away and
	// only site 3 keeps y alive (via its app root).
	c.Site(1).RunLocalTrace()
	c.Settle()
	if c.Site(1).NumOutrefs() != 0 {
		t.Fatal("outref survived after pin release with no local use")
	}
	c.RunRounds(3)
	if !c.Site(2).ContainsObject(y.Obj) {
		t.Fatal("object collected while site 3 holds it")
	}
}

func TestSelfSendIsHarmless(t *testing.T) {
	c := New(defaultOpts(2))
	defer c.Close()
	x := c.Site(1).NewObject()
	if err := c.Site(1).SendRef(1, x); err != nil {
		t.Fatal(err)
	}
	c.Settle()
	// One app-root hold registered; object survives tracing.
	c.Site(1).RunLocalTrace()
	if !c.Site(1).ContainsObject(x.Obj) {
		t.Fatal("self-sent object collected")
	}
	c.Site(1).DropAppRoot(x)
	c.Site(1).RunLocalTrace()
	if c.Site(1).ContainsObject(x.Obj) {
		t.Fatal("self-sent object survived after drop")
	}
}

func TestInrefDistanceAccessorsOnMissingEntries(t *testing.T) {
	c := New(defaultOpts(1))
	defer c.Close()
	if d := c.Site(1).InrefDistance(99); d != refs.DistInfinity {
		t.Fatalf("missing inref distance = %d, want infinity", d)
	}
	if d := c.Site(1).OutrefDistance(ids.MakeRef(2, 1)); d != refs.DistInfinity {
		t.Fatalf("missing outref distance = %d, want infinity", d)
	}
}
