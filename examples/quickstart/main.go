// Command quickstart demonstrates the collector on the paper's core
// problem: a garbage cycle spread across sites, which local tracing alone
// can never reclaim, collected by a back trace.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"backtrace"
)

func main() {
	// A three-site store. AutoBackTrace starts back traces whenever an
	// outgoing reference's estimated distance crosses its back threshold.
	c := backtrace.NewCluster(backtrace.ClusterOptions{
		NumSites: 3,
		Site: backtrace.SiteConfig{
			SuspicionThreshold: 3,
			BackThreshold:      7,
			AutoBackTrace:      true,
		},
	})
	defer c.Close()

	// A persistent root on site 1 keeps a live chain alive.
	root := c.Site(1).NewRootObject()
	live := c.Site(2).NewObject()
	c.MustLink(root, live)

	// A garbage cycle spanning sites 2 and 3: no root reaches it.
	x := c.Site(2).NewObject()
	y := c.Site(3).NewObject()
	c.MustLink(x, y)
	c.MustLink(y, x)

	fmt.Printf("before: %d objects, %d garbage (the x<->y cycle)\n",
		c.TotalObjects(), c.GarbageCount())

	// Local traces alone never collect the cycle: each site sees the
	// other's incoming reference and must treat it as a root.
	c.RunRounds(3)
	fmt.Printf("after 3 rounds of local tracing: %d objects (cycle still there)\n",
		c.TotalObjects())

	// Keep running rounds: the distance heuristic keeps raising the
	// cycle's estimated distances, a back trace fires, confirms the cycle
	// garbage, and the next local traces reclaim it.
	rounds, collected := c.CollectUntilStable(40)
	fmt.Printf("after %d more rounds: collected %d, %d objects remain\n",
		rounds, collected, c.TotalObjects())

	for _, o := range []backtrace.Ref{root, live} {
		if !c.Site(o.Site).ContainsObject(o.Obj) {
			panic("live object collected!")
		}
	}
	fmt.Println("live objects intact; garbage cycle gone.")

	snap := c.Metrics()
	fmt.Printf("\nback traces started: %d (garbage verdicts: %d)\n",
		snap.Get("backtrace.started"), snap.Get("backtrace.outcome.garbage"))
	fmt.Printf("messages sent: %d (BackCall %d, BackReply %d, Report %d)\n",
		snap.Get("msg.total"), snap.Get("msg.BackCall"), snap.Get("msg.BackReply"), snap.Get("msg.Report"))
}
