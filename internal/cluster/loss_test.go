package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/obs"
)

// TestMessageLossEventualCollection (experiment C10): with lossy links,
// back-trace timeouts assume Live (safe), thresholds rise, and retries
// eventually confirm the garbage; update reconciliation and insert
// retransmission heal the reference-listing state. A root-anchored cycle
// must survive throughout.
func TestMessageLossEventualCollection(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		opts := defaultOpts(3)
		opts.Seed = seed
		opts.Site.CallTimeout = time.Nanosecond // any pending frame expires on the next check
		opts.Site.ReportTimeout = time.Nanosecond
		c := New(opts)

		garbage := c.BuildRing()
		root := c.Site(1).NewRootObject()
		liveA := c.Site(2).NewObject()
		liveB := c.Site(3).NewObject()
		c.MustLink(root, liveA)
		c.MustLink(liveA, liveB)
		c.MustLink(liveB, liveA)
		c.RunRounds(2)

		c.Net().SetDropProb(0.15)
		rounds := 0
		for ; rounds < 80 && c.GarbageCount() > 0; rounds++ {
			c.RunRound()
			c.CheckAllTimeouts()
		}
		c.Net().SetDropProb(0)
		t.Logf("seed %d: garbage gone after %d lossy rounds", seed, rounds)

		if g := c.GarbageCount(); g != 0 {
			t.Fatalf("seed %d: %d garbage objects remain after %d lossy rounds", seed, g, rounds)
		}
		for _, o := range garbage {
			if c.Site(o.Site).ContainsObject(o.Obj) {
				t.Fatalf("seed %d: garbage ring member %v survived", seed, o)
			}
		}
		for _, o := range []ids.Ref{root, liveA, liveB} {
			if !c.Site(o.Site).ContainsObject(o.Obj) {
				t.Fatalf("seed %d: live object %v collected under message loss", seed, o)
			}
		}
		c.Close()
	}
}

// TestReliableLossMatrixEventualCollection: with the reliable session layer
// interposed, heavy loss plus duplication plus reordering is invisible to
// the protocol — a 3-site distributed cycle is collected with ZERO
// back-trace timeouts (contrast TestMessageLossEventualCollection, where
// bare lossy links force the Section 4.6 assume-Live fallback and extra
// re-suspicion rounds). Live objects survive throughout.
func TestReliableLossMatrixEventualCollection(t *testing.T) {
	for _, drop := range []float64{0.1, 0.3, 0.5} {
		drop := drop
		t.Run(fmt.Sprintf("drop=%.1f", drop), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 2; seed++ {
				opts := defaultOpts(3)
				opts.Seed = seed
				opts.Reliable = true
				opts.Site.CallTimeout = 5 * time.Second
				opts.Site.ReportTimeout = 10 * time.Second
				c := New(opts)

				garbage := c.BuildRing()
				root := c.Site(1).NewRootObject()
				liveA := c.Site(2).NewObject()
				liveB := c.Site(3).NewObject()
				c.MustLink(root, liveA)
				c.MustLink(liveA, liveB)
				c.MustLink(liveB, liveA)
				c.RunRounds(2)

				c.Net().SetDropProb(drop)
				c.Net().SetDupProb(0.2)
				c.Net().SetReorderProb(0.2)
				rounds := 0
				for ; rounds < 40 && c.GarbageCount() > 0; rounds++ {
					c.RunRound()
					c.CheckAllTimeouts()
				}
				c.Net().SetDropProb(0)
				c.Net().SetDupProb(0)
				c.Net().SetReorderProb(0)
				t.Logf("drop=%.1f seed %d: garbage gone after %d chaotic rounds, %d retransmits",
					drop, seed, rounds, c.Metrics().Get(metrics.LinkRetransmits))

				if g := c.GarbageCount(); g != 0 {
					t.Fatalf("seed %d: %d garbage objects remain after %d rounds", seed, g, rounds)
				}
				for _, o := range garbage {
					if c.Site(o.Site).ContainsObject(o.Obj) {
						t.Fatalf("seed %d: garbage ring member %v survived", seed, o)
					}
				}
				for _, o := range []ids.Ref{root, liveA, liveB} {
					if !c.Site(o.Site).ContainsObject(o.Obj) {
						t.Fatalf("seed %d: live object %v collected under chaos", seed, o)
					}
				}
				if n := len(ofKind(t, c, obs.TimeoutAssumedLive)); n != 0 {
					t.Fatalf("seed %d: %d TimeoutAssumedLive events with the reliable layer (want 0)", seed, n)
				}
				if drop > 0 && c.Metrics().Get(metrics.LinkRetransmits) == 0 {
					t.Errorf("seed %d: no retransmissions under %.0f%% loss", seed, drop*100)
				}
				c.Close()
			}
		})
	}
}

// TestAsyncConcurrentOperation runs a cluster in asynchronous mode (real
// delivery goroutines with latency and jitter) while a mutator goroutine
// and a collector goroutine work concurrently — primarily a lock-soundness
// test (run with -race).
func TestAsyncConcurrentOperation(t *testing.T) {
	opts := defaultOpts(3)
	opts.Async = true
	opts.Latency = 200 * time.Microsecond
	opts.Jitter = 200 * time.Microsecond
	c := New(opts)
	defer c.Close()

	root := c.Site(1).NewRootObject()
	ring := c.BuildRing()
	_ = ring

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Collector: rounds in a loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, s := range c.Sites() {
				s.RunLocalTrace()
			}
		}
	}()

	// Mutator: builds and tears down remote references.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			x := c.Site(2).NewObject()
			if err := c.Site(1).AddReference(root.Obj, x); err != nil {
				// The outref may not exist yet; transfer first.
				if err := c.Site(2).SendRef(1, x); err != nil {
					continue
				}
				// Wait for the transfer to land, then store and drop.
				for try := 0; try < 100; try++ {
					if err := c.Site(1).AddReference(root.Obj, x); err == nil {
						break
					}
					time.Sleep(100 * time.Microsecond)
				}
				c.Site(1).DropAppRoot(x)
			}
			if i%3 == 0 {
				if fields, err := c.Site(1).Fields(root.Obj); err == nil && len(fields) > 0 {
					_ = c.Site(1).RemoveReference(root.Obj, fields[0])
				}
			}
		}
	}()

	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	c.Settle()

	// Sanity: the root is alive and the audit is consistent.
	if !c.Site(1).ContainsObject(root.Obj) {
		t.Fatal("root collected")
	}
	live := c.GlobalLive()
	if _, ok := live[root]; !ok {
		t.Fatal("root not in live set")
	}
	// Drain garbage and verify the cluster converges.
	rounds, _ := c.CollectUntilStable(60)
	if g := c.GarbageCount(); g != 0 {
		t.Fatalf("garbage remains after %d rounds: %d", rounds, g)
	}
}
