package cluster

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"backtrace/internal/ids"
)

// TestParallelRoundMatchesSerial collects the same cross-site garbage ring
// with the serial stepped driver and the parallel mailbox driver; both must
// reclaim everything without touching the live structure.
func TestParallelRoundMatchesSerial(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		opts := defaultOpts(4)
		opts.Parallel = parallel
		c := New(opts)

		// Live structure: a rooted chain crossing all sites.
		root := c.Site(1).NewRootObject()
		prev := root
		for i := 2; i <= 4; i++ {
			n := c.Site(ids.SiteID(i)).NewObject()
			c.MustLink(prev, n)
			prev = n
		}
		// Garbage: a ring spanning every site.
		ring := c.BuildRing()

		rounds, collected := c.CollectUntilStable(40)
		if g := c.GarbageCount(); g != 0 {
			t.Fatalf("parallel=%v: %d garbage objects remain after %d rounds (%d collected)",
				parallel, g, rounds, collected)
		}
		if collected != len(ring) {
			t.Fatalf("parallel=%v: collected %d, want %d", parallel, collected, len(ring))
		}
		if !c.Site(1).ContainsObject(root.Obj) || !c.Site(4).ContainsObject(prev.Obj) {
			t.Fatalf("parallel=%v: live chain was collected", parallel)
		}
		if got := c.InvariantViolations(); len(got) != 0 {
			t.Fatalf("parallel=%v: invariants: %v", parallel, got)
		}
		c.Close()
	}
}

// TestConcurrentStress exercises the mailbox/off-lock architecture under
// the race detector: per-site mutator goroutines (allocation, linking,
// cross-site transfers, deletions), collector goroutines running whole and
// split local traces plus back traces, a timeout scanner, and an
// introspection goroutine, all concurrently. Afterwards the mutator holds
// are drained and the C6 safety oracle must hold: nothing live was
// collected, all garbage is reclaimed, and the cross-site tables are
// consistent.
func TestConcurrentStress(t *testing.T) {
	opts := defaultOpts(4)
	opts.Parallel = true
	opts.Site.InboxSize = 8 // small inbox so backpressure paths run
	runConcurrentStress(t, opts)
}

// runConcurrentStress is the body of TestConcurrentStress, shared with
// TestShardedConcurrentStress.
func runConcurrentStress(t *testing.T, opts Options) {
	const (
		numSites = 4
		duration = 400 * time.Millisecond
	)
	c := New(opts)
	defer c.Close()

	// received collects refs transferred to each site, for its mutator to
	// link into local objects and then release.
	type refbox struct {
		mu   sync.Mutex
		refs map[ids.SiteID][]ids.Ref
	}
	box := &refbox{refs: make(map[ids.SiteID][]ids.Ref)}
	put := func(at ids.SiteID, r ids.Ref) {
		box.mu.Lock()
		box.refs[at] = append(box.refs[at], r)
		box.mu.Unlock()
	}
	take := func(at ids.SiteID) (ids.Ref, bool) {
		box.mu.Lock()
		defer box.mu.Unlock()
		rs := box.refs[at]
		if len(rs) == 0 {
			return ids.Ref{}, false
		}
		r := rs[len(rs)-1]
		box.refs[at] = rs[:len(rs)-1]
		return r, true
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// One mutator per site.
	for i := 1; i <= numSites; i++ {
		id := ids.SiteID(i)
		wg.Add(1)
		go func(id ids.SiteID, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			s := c.Site(id)
			local := []ids.Ref{s.NewRootObject()}
			pick := func() ids.Ref { return local[rng.Intn(len(local))] }
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch rng.Intn(6) {
				case 0: // allocate, held in a variable and linked from an existing object
					// The mutator keeps n in `local` and may link or
					// transfer it at any later time, so it must hold an
					// application root for as long as the variable lives
					// (the Section 2 mutator model). Without this hold,
					// an object whose references were deleted could be
					// resurrected from `local` after a back trace had
					// correctly flagged it garbage — the flag is sticky,
					// so the owner would eventually sweep it while a
					// holder still had a live outref. That model
					// violation was the rare "outref targets a collected
					// object" audit flake. The holds are dropped in the
					// drain loop after the stress phase.
					n := s.NewHeldObject()
					if err := s.AddReference(pick().Obj, n); err == nil {
						local = append(local, n)
					} else {
						s.DropAppRoot(n)
					}
				case 1: // link two local objects (cycles welcome)
					_ = s.AddReference(pick().Obj, pick())
				case 2: // delete a random reference
					if fields, err := s.Fields(pick().Obj); err == nil && len(fields) > 0 {
						_ = s.RemoveReference(pick().Obj, fields[rng.Intn(len(fields))])
					}
				case 3: // transfer a local ref to a random peer
					peer := ids.SiteID(1 + rng.Intn(numSites))
					if peer != id {
						r := pick()
						if err := s.SendRef(peer, r); err == nil {
							put(peer, r)
						}
					}
				case 4: // adopt a received ref: store it, then drop the hold
					if r, ok := take(id); ok {
						_ = s.AddReference(pick().Obj, r)
						s.DropAppRoot(r)
					}
				case 5: // read own state while others write
					_ = s.NumObjects()
					_, _ = s.Fields(pick().Obj)
				}
			}
		}(id, int64(i))
	}

	// Two collectors running whole and split traces on random sites.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := c.Site(ids.SiteID(1 + rng.Intn(numSites)))
				switch rng.Intn(3) {
				case 0:
					s.RunLocalTrace()
				case 1: // split trace with a gap, overlapping deliveries
					s.BeginLocalTrace()
					time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
					s.CommitLocalTrace()
				case 2:
					s.TriggerBackTraces()
					c.Spans().Events()
				}
			}
		}(int64(100 + g))
	}

	// Timeout scanner and introspection, as production sidecars would run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			c.CheckAllTimeouts()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := ids.SiteID(1 + i%numSites)
			s := c.Site(id)
			_ = s.Inrefs()
			_ = s.Outrefs()
			_ = s.BackInfoEntries()
			_ = s.AuditSnapshot()
			_ = s.InboxDepth()
		}
	}()

	time.Sleep(duration)
	close(stop)
	wg.Wait()
	c.Settle()

	// Quiesce the mutator: release every application-root hold (including
	// transfer retentions still waiting on pin releases), settling between
	// sweeps until none remain.
	for {
		dropped := false
		for _, s := range c.Sites() {
			for _, r := range s.AuditSnapshot().AppRoots {
				s.DropAppRoot(r)
				dropped = true
			}
		}
		c.Settle()
		if !dropped {
			break
		}
	}

	rounds, collected := c.CollectUntilStable(120)
	if g := c.GarbageCount(); g != 0 {
		t.Fatalf("%d garbage objects remain after %d rounds (%d collected)", g, rounds, collected)
	}
	live := c.GlobalLive()
	for r := range live {
		if !c.Site(r.Site).ContainsObject(r.Obj) {
			t.Fatalf("live object %v missing after stress", r)
		}
	}
	if got := c.InvariantViolations(); len(got) != 0 {
		t.Fatalf("invariants: %v", got)
	}
}
