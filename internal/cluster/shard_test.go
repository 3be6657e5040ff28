package cluster

import (
	"runtime"
	"sync"
	"testing"

	"backtrace/internal/ids"
)

// The tests in this file keep the names they had when site heaps were split
// into hash partitions. Their subject is now the one heap lock: heap-only
// mutators take the site read lock plus that lock, and contend there with
// each other and with the snapshot patching of every local trace.

// TestShardedConcurrentStress is TestConcurrentStress with messages applied
// on the delivery goroutines (no mailbox), so message handlers, read-locked
// mutators, trace snapshots and the off-lock mark all meet at the site and
// heap locks under the race detector at once.
func TestShardedConcurrentStress(t *testing.T) {
	opts := defaultOpts(4)
	opts.Parallel = true
	runConcurrentStress(t, opts)
}

// TestShardedRoundMatchesSerial re-runs the cross-site ring collection while
// one goroutine per site allocates persistent roots and keeps reading their
// fields — heap-only mutators on the one heap lock. The results must match
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
