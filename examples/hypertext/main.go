// Command hypertext runs the paper's motivating workload: hypertext
// documents whose pages form "large, complex cycles" across sites. Live
// documents hang off a root directory; orphaned documents (deleted from
// the directory) are distributed cyclic garbage that only back tracing
// reclaims.
//
// Run with:
//
//	go run ./examples/hypertext
package main

import (
	"fmt"

	"backtrace"
)

func main() {
	const sites = 6
	c := backtrace.NewCluster(backtrace.ClusterOptions{
		NumSites: sites,
		Site: backtrace.SiteConfig{
			SuspicionThreshold: 4,
			BackThreshold:      10,
			AutoBackTrace:      true,
		},
	})
	defer c.Close()

	spec := backtrace.HypertextWeb(backtrace.HypertextConfig{
		Sites:       sites,
		Docs:        12,
		PagesPerDoc: 6,
		CrossLinks:  8,
		LiveFrac:    0.5,
		Seed:        42,
	})
	refs, err := backtrace.BuildWorkload(c, spec)
	if err != nil {
		panic(err)
	}

	fmt.Printf("web built: %d objects over %d sites, %d inter-site links\n",
		len(refs), sites, spec.InterSiteEdges())
	fmt.Printf("orphaned pages (distributed cyclic garbage): %d\n", c.GarbageCount())

	rounds, collected := c.CollectUntilStable(80)
	fmt.Printf("collected %d orphaned objects in %d rounds; %d live objects remain\n",
		collected, rounds, c.TotalObjects())

	if g := c.GarbageCount(); g != 0 {
		panic(fmt.Sprintf("garbage left: %d", g))
	}

	// Every remaining object is reachable from the directory.
	live := c.GlobalLive()
	if len(live) != c.TotalObjects() {
		panic("live set and heap contents disagree")
	}

	snap := c.Metrics()
	fmt.Printf("\nback traces: %d started, %d confirmed garbage, %d found live\n",
		snap.Get("backtrace.started"), snap.Get("backtrace.outcome.garbage"), snap.Get("backtrace.outcome.live"))
	fmt.Printf("inrefs flagged garbage by report phases: %d\n", snap.Get("inrefs.flagged.garbage"))
	fmt.Printf("local traces: %d (objects scanned: %d, collected: %d)\n",
		snap.Get("localtrace.runs"), snap.Get("localtrace.objects"), snap.Get("localtrace.collected"))
}
