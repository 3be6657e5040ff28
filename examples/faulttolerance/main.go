// Command faulttolerance demonstrates the locality property that motivates
// the paper: collecting a garbage cycle involves only the sites containing
// it, so a crashed site delays only the garbage reachable from its own
// objects.
//
// Two garbage cycles exist: cycle A on sites 1-2 and cycle B on sites 3-4.
// Site 4 crashes. Cycle A is still collected; cycle B waits until site 4
// returns. A global-trace collector (like Hughes's timestamp scheme in the
// paper's related work) would collect NOTHING while any site is down.
//
// Run with:
//
//	go run ./examples/faulttolerance
package main

import (
	"fmt"

	"backtrace"
)

func main() {
	c := backtrace.NewCluster(backtrace.ClusterOptions{
		NumSites: 4,
		Site: backtrace.SiteConfig{
			SuspicionThreshold: 3,
			BackThreshold:      7,
			AutoBackTrace:      true,
		},
	})
	defer c.Close()

	a1 := c.Site(1).NewObject()
	a2 := c.Site(2).NewObject()
	c.MustLink(a1, a2)
	c.MustLink(a2, a1)

	b3 := c.Site(3).NewObject()
	b4 := c.Site(4).NewObject()
	c.MustLink(b3, b4)
	c.MustLink(b4, b3)

	fmt.Println("cycle A on sites 1-2, cycle B on sites 3-4; crashing site 4")
	c.Net().Crash(4)

	// Run rounds on the surviving sites.
	for round := 1; round <= 25; round++ {
		for _, id := range []backtrace.SiteID{1, 2, 3} {
			c.Site(id).RunLocalTrace()
			c.Settle()
		}
	}

	gone := func(r backtrace.Ref) bool { return !c.Site(r.Site).ContainsObject(r.Obj) }
	fmt.Printf("with site 4 down:  cycle A collected: %v   cycle B collected: %v\n",
		gone(a1) && gone(a2), gone(b3) && gone(b4))
	if !gone(a1) || !gone(a2) {
		panic("locality violated: cycle A should not depend on site 4")
	}
	if gone(b3) || gone(b4) {
		panic("cycle B half-collected while a participant is down")
	}

	fmt.Println("restarting site 4")
	c.Net().Restart(4)
	c.CollectUntilStable(40)
	fmt.Printf("after restart:     cycle B collected: %v\n", gone(b3) && gone(b4))
	if c.GarbageCount() != 0 {
		panic("garbage remains after restart")
	}
	fmt.Println("locality holds: each cycle needed only its own sites.")
}
