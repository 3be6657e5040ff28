package cluster

import (
	"runtime"
	"sync"
	"testing"

	"backtrace/internal/ids"
)

// The tests in this file keep the names they had when site heaps were split
// into hash partitions. Their subject is now the one site lock, the only
// lock on a site's heap and ioref tables: mutators and message handlers
// take it for writing and contend there with the snapshot cut of every
// local trace, while read-only introspection shares it for reading.

// TestShardedConcurrentStress is TestConcurrentStress with messages applied
// on the delivery goroutines (no mailbox), so message handlers, mutators,
// trace snapshots and the off-lock mark all meet at the site lock under the
// race detector at once.
func TestShardedConcurrentStress(t *testing.T) {
	opts := defaultOpts(4)
	opts.Parallel = true
	runConcurrentStress(t, opts)
}

// TestShardedRoundMatchesSerial re-runs the cross-site ring collection while
// one goroutine per site allocates persistent roots and keeps reading their
// fields — heap-only mutators on the one site lock. The results must match
// the serial collectors': every garbage object reclaimed, the live chain and
// every new root untouched, no invariant violations.
func TestShardedRoundMatchesSerial(t *testing.T) {
	opts := defaultOpts(4)
	opts.Parallel = true
	c := New(opts)
	defer c.Close()

	root := c.Site(1).NewRootObject()
	prev := root
	for i := 2; i <= 4; i++ {
		n := c.Site(ids.SiteID(i)).NewObject()
		c.MustLink(prev, n)
		prev = n
	}
	ring := c.BuildRing()

	// Each mutator allocates up to maxRoots roots, then keeps reading them.
	const maxRoots = 500
	stop := make(chan struct{})
	var wg sync.WaitGroup
	roots := make([][]ids.Ref, 4)
	for i := range roots {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			site := c.Site(ids.SiteID(s + 1))
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				if len(roots[s]) < maxRoots {
					roots[s] = append(roots[s], site.NewRootObject())
				}
				if _, err := site.Fields(roots[s][n%len(roots[s])].Obj); err != nil {
					t.Error(err)
					return
				}
				runtime.Gosched()
			}
		}(i)
	}
	rounds, collected := c.CollectUntilStable(40)
	close(stop)
	wg.Wait()

	if g := c.GarbageCount(); g != 0 {
		t.Fatalf("%d garbage objects remain after %d rounds (%d collected)", g, rounds, collected)
	}
	if collected != len(ring) {
		t.Fatalf("collected %d, want %d", collected, len(ring))
	}
	if !c.Site(1).ContainsObject(root.Obj) || !c.Site(4).ContainsObject(prev.Obj) {
		t.Fatal("live chain was collected")
	}
	for s, rs := range roots {
		for _, r := range rs {
			if !c.Site(ids.SiteID(s + 1)).ContainsObject(r.Obj) {
				t.Fatalf("root %v allocated during collection was collected", r)
			}
		}
	}
	if got := c.InvariantViolations(); len(got) != 0 {
		t.Fatalf("invariants: %v", got)
	}
}

// TestShardedIntrospectionDuringCollection collects the cross-site ring in
// parallel rounds while, on every site, one goroutine runs heap-only
// mutators and more keep reading the site through its introspection calls.
// The readers share the site read lock with each other, so any of them that
// wrote to the heap or the ioref tables (such as rebuilding a table's sorted
// cache) would race with another under -race. To keep those caches turning
// over, each new held object is also sent to the next site, which adds an
// inref here and an outref there. The ring must be collected, every held or
// rooted object must survive, and no invariant may be violated.
func TestShardedIntrospectionDuringCollection(t *testing.T) {
	const (
		numSites = 4
		readers  = 3
		maxHeld  = 200
	)
	opts := defaultOpts(numSites)
	opts.Parallel = true
	c := New(opts)
	defer c.Close()

	ring := c.BuildRing()
	anchors := make([]ids.Ref, numSites)
	for i := range anchors {
		anchors[i] = c.Site(ids.SiteID(i + 1)).NewRootObject()
	}

	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	var wg sync.WaitGroup
	held := make([][]ids.Ref, numSites)
	for i := 0; i < numSites; i++ {
		site := c.Site(ids.SiteID(i + 1))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; !stopped(); n++ {
				if len(held[i]) < maxHeld {
					r := site.NewHeldObject()
					held[i] = append(held[i], r)
					if err := site.SendRef(ids.SiteID((i+1)%numSites+1), r); err != nil {
						t.Error(err)
						return
					}
				}
				r := held[i][n%len(held[i])]
				site.AddAppRoot(r)
				site.DropAppRoot(r)
				if err := site.AddReference(anchors[i].Obj, r); err != nil {
					t.Error(err)
					return
				}
				if err := site.RemoveReference(anchors[i].Obj, r); err != nil {
					t.Error(err)
					return
				}
				if err := site.MarkPersistentRoot(r.Obj); err != nil {
					t.Error(err)
					return
				}
				site.UnmarkPersistentRoot(r.Obj)
				runtime.Gosched()
			}
		}(i)
		for k := 0; k < readers; k++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for !stopped() {
					for _, in := range site.Inrefs() {
						site.InrefDistance(in.Obj)
					}
					for _, o := range site.Outrefs() {
						site.OutrefDistance(o.Target)
					}
					site.GarbageFlaggedInrefs()
					site.NumInrefs()
					site.NumObjects()
					site.OwnerTransfersPending()
					if _, err := site.Fields(anchors[i].Obj); err != nil {
						t.Error(err)
						return
					}
					runtime.Gosched()
				}
			}(i)
		}
	}
	rounds, collected := c.CollectUntilStable(40)
	close(stop)
	wg.Wait()
	c.Settle()

	if g := c.GarbageCount(); g != 0 {
		t.Fatalf("%d garbage objects remain after %d rounds (%d collected)", g, rounds, collected)
	}
	if collected != len(ring) {
		t.Fatalf("collected %d, want %d", collected, len(ring))
	}
	for i, a := range anchors {
		site := c.Site(ids.SiteID(i + 1))
		if !site.ContainsObject(a.Obj) {
			t.Fatalf("persistent root %v was collected", a)
		}
		for _, r := range held[i] {
			if !site.ContainsObject(r.Obj) {
				t.Fatalf("held object %v was collected", r)
			}
		}
	}
	if got := c.InvariantViolations(); len(got) != 0 {
		t.Fatalf("invariants: %v", got)
	}
}
