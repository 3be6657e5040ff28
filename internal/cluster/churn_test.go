package cluster

import (
	"math/rand"
	"testing"

	"backtrace/internal/ids"
)

// TestChurnSafetyAndCompleteness (experiment C6) drives a cluster with a
// randomized mutator — object creation, cross-site linking, reference
// deletion, root demotion, split local traces, manual back traces, and
// scrambled message delivery — and checks after every burst that no live
// object has been collected. When the mutator stops, every unreachable
// object (including cross-site cycles) must eventually be reclaimed.
func TestChurnSafetyAndCompleteness(t *testing.T) {
	const (
		numSeeds = 8
		numSites = 4
		steps    = 300
	)
	for seed := int64(1); seed <= numSeeds; seed++ {
		func() {
			rng := rand.New(rand.NewSource(seed))
			opts := defaultOpts(numSites)
			opts.Site.AutoBackTrace = true
			c := New(opts)
			defer c.Close()

			// Every site gets a persistent root.
			roots := make([]ids.Ref, numSites)
			objs := make([]ids.Ref, 0, 256)
			for i := 0; i < numSites; i++ {
				roots[i] = c.Site(ids.SiteID(i + 1)).NewRootObject()
				objs = append(objs, roots[i])
			}
			var holds []ids.Ref // (holder site encoded separately)
			var holdSites []ids.SiteID

			randSite := func() ids.SiteID { return ids.SiteID(1 + rng.Intn(numSites)) }
			randObj := func() ids.Ref { return objs[rng.Intn(len(objs))] }

			checkSafety := func(step int) {
				live := c.GlobalLive()
				snaps := make(map[ids.SiteID]map[ids.ObjID][]ids.Ref, numSites)
				for i := 1; i <= numSites; i++ {
					snaps[ids.SiteID(i)] = c.Site(ids.SiteID(i)).AuditSnapshot().Objects
				}
				for r := range live {
					fields, ok := snaps[r.Site][r.Obj]
					if !ok {
						t.Fatalf("seed %d step %d: live object %v missing", seed, step, r)
					}
					for _, f := range fields {
						if f.IsZero() {
							continue
						}
						if _, exists := snaps[f.Site][f.Obj]; !exists {
							t.Fatalf("seed %d step %d: live object %v has dangling field %v", seed, step, r, f)
						}
					}
				}
			}

			for step := 0; step < steps; step++ {
				switch rng.Intn(10) {
				case 0, 1: // create an object linked from an existing one
					from := randObj()
					n := c.Site(from.Site).NewObject()
					if err := c.Link(from, n); err == nil {
						objs = append(objs, n)
					}
				case 2: // link two existing objects (may build cycles)
					from, to := randObj(), randObj()
					if c.Site(from.Site).ContainsObject(from.Obj) && c.Site(to.Site).ContainsObject(to.Obj) {
						_ = c.Link(from, to)
					}
				case 3: // delete a random reference
					from := randObj()
					s := c.Site(from.Site)
					if fields, err := s.Fields(from.Obj); err == nil && len(fields) > 0 {
						_ = s.RemoveReference(from.Obj, fields[rng.Intn(len(fields))])
					}
				case 4: // mutator grabs a remote reference and holds it
					target := randObj()
					holder := randSite()
					if holder != target.Site && c.Site(target.Site).ContainsObject(target.Obj) {
						if err := c.Site(target.Site).SendRef(holder, target); err == nil {
							holds = append(holds, target)
							holdSites = append(holdSites, holder)
						}
					}
				case 5: // mutator drops a hold
					if len(holds) > 0 {
						i := rng.Intn(len(holds))
						c.Site(holdSites[i]).DropAppRoot(holds[i])
						holds = append(holds[:i], holds[i+1:]...)
						holdSites = append(holdSites[:i], holdSites[i+1:]...)
					}
				case 6: // local trace, sometimes split with deliveries inside
					s := c.Site(randSite())
					if rng.Intn(2) == 0 {
						s.RunLocalTrace()
					} else {
						s.BeginLocalTrace()
						for k := 0; k < rng.Intn(4); k++ {
							if n := c.Net().PendingCount(); n > 0 {
								c.Net().DeliverIndex(rng.Intn(n))
							}
						}
						s.CommitLocalTrace()
					}
				case 7: // deliver a few messages in scrambled order
					for k := 0; k < 1+rng.Intn(5); k++ {
						if n := c.Net().PendingCount(); n > 0 {
							c.Net().DeliverIndex(rng.Intn(n))
						}
					}
				case 8: // trigger back traces at a random site
					c.Site(randSite()).TriggerBackTraces()
				case 9: // occasionally demote a root, creating bulk garbage
					if rng.Intn(8) == 0 {
						i := rng.Intn(len(roots))
						c.Site(roots[i].Site).UnmarkPersistentRoot(roots[i].Obj)
					}
				}
				if step%25 == 24 {
					c.Settle()
					checkSafety(step)
				}
			}

			// Quiesce the mutator: drop all holds, settle, collect.
			for i := range holds {
				c.Site(holdSites[i]).DropAppRoot(holds[i])
			}
			c.Settle()
			checkSafety(steps)

			rounds, collected := c.CollectUntilStable(80)
			if g := c.GarbageCount(); g != 0 {
				t.Fatalf("seed %d: %d garbage objects remain after %d rounds (%d collected)",
					seed, g, rounds, collected)
			}
			checkSafety(steps + 1)
			if got := c.InvariantViolations(); len(got) != 0 {
				t.Fatalf("seed %d: invariants: %v", seed, got)
			}
		}()
	}
}
