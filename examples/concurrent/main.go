// Command concurrent exercises the Section 6 machinery: mutators keep
// creating and deleting cross-site references (including re-rooting
// structures that back traces are suspecting) while collectors run
// concurrently on an asynchronous network with real delivery goroutines.
// The transfer/insert barriers and the clean rule must keep every live
// object safe; once the mutators stop, everything unreachable must go.
//
// Run with:
//
//	go run ./examples/concurrent
package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"backtrace"
)

func main() {
	const sites = 4
	c := backtrace.NewCluster(backtrace.ClusterOptions{
		NumSites: sites,
		Async:    true,
		Latency:  200 * time.Microsecond,
		Jitter:   300 * time.Microsecond,
		Site: backtrace.SiteConfig{
			SuspicionThreshold: 3,
			BackThreshold:      7,
			AutoBackTrace:      true,
		},
	})
	defer c.Close()

	// Persistent anchors, one per site.
	anchors := make([]backtrace.Ref, sites)
	for i := range anchors {
		anchors[i] = c.Site(backtrace.SiteID(i + 1)).NewRootObject()
	}

	var (
		mu      sync.Mutex
		pinned  []backtrace.Ref // objects currently reachable from anchors
		created int
	)

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Collector goroutine: continuous rounds.
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

	// Mutator goroutine: builds cross-site cycles under an anchor, then
	// cuts them loose (creating suspect garbage), sometimes re-rooting a
	// structure that is already under suspicion — the Figure 5 race.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 120; i++ {
			s1 := backtrace.SiteID(rng.Intn(sites) + 1)
			s2 := backtrace.SiteID(rng.Intn(sites) + 1)
			x := c.Site(s1).NewObject()
			y := c.Site(s2).NewObject()
			if link(c, x, y) != nil || link(c, y, x) != nil {
				continue
			}
			anchor := anchors[rng.Intn(sites)]
			if link(c, anchor, x) != nil {
				continue
			}
			mu.Lock()
			created += 2
			pinned = append(pinned, x, y)
			// Cut a previously built cycle loose half of the time.
			if len(pinned) > 4 && rng.Intn(2) == 0 {
				victim := pinned[0]
				pinned = pinned[2:]
				for _, a := range anchors {
					_ = c.Site(a.Site).RemoveReference(a.Obj, victim)
				}
			}
			mu.Unlock()
		}
		close(stop)
	}()

	wg.Wait()
	c.Settle()

	rounds, collected := c.CollectUntilStable(80)
	mu.Lock()
	survivors := pinned
	mu.Unlock()

	fmt.Printf("mutator created %d cycle objects; %d still anchored\n", created, len(survivors))
	snapMid := c.Metrics()
	fmt.Printf("collector reclaimed %d objects while racing the mutator, %d more in %d final rounds\n",
		snapMid.Get("localtrace.collected")-int64(collected), collected, rounds)

	for _, r := range survivors {
		if !c.Site(r.Site).ContainsObject(r.Obj) {
			panic(fmt.Sprintf("SAFETY VIOLATION: anchored object %v was collected", r))
		}
	}
	if g := c.GarbageCount(); g != 0 {
		panic(fmt.Sprintf("completeness violation: %d garbage objects remain", g))
	}
	snap := c.Metrics()
	fmt.Printf("back traces: %d (garbage %d, live %d); no live object was ever collected.\n",
		snap.Get("backtrace.started"), snap.Get("backtrace.outcome.garbage"), snap.Get("backtrace.outcome.live"))
}

// link performs the full reference-passing protocol to make from -> target
// on an asynchronous cluster: transfer the reference, wait for the outref,
// store it, release the variable.
func link(c *backtrace.Cluster, from, target backtrace.Ref) error {
	holder := c.Site(from.Site)
	if target.Site == from.Site {
		return holder.AddReference(from.Obj, target)
	}
	if err := c.Site(target.Site).SendRef(from.Site, target); err != nil {
		return err
	}
	var err error
	for try := 0; try < 200; try++ {
		if err = holder.AddReference(from.Obj, target); err == nil {
			holder.DropAppRoot(target)
			return nil
		}
		time.Sleep(100 * time.Microsecond)
	}
	return err
}
