package cluster_test

import (
	"math/rand"
	"testing"

	"backtrace/internal/cluster"
	"backtrace/internal/ids"
	"backtrace/internal/site"
	"backtrace/internal/workload"
)

// TestSoakLargeCluster runs a bigger system — 12 sites, thousands of
// objects, heavy churn — end to end: build several workloads, mutate,
// collect, audit. Guarded by -short.
func TestSoakLargeCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const sites = 12
	c := cluster.New(cluster.Options{
		NumSites: sites,
		Site: site.Config{
			SuspicionThreshold: 3,
			BackThreshold:      7,
			ThresholdBump:      4,
			AutoBackTrace:      true,
			Piggyback:          true,
		},
	})
	defer c.Close()
	rng := rand.New(rand.NewSource(99))

	// Layer several workloads on the same cluster.
	if _, err := workload.Build(c, workload.HypertextWeb(workload.HypertextConfig{
		Sites: sites, Docs: 30, PagesPerDoc: 8, CrossLinks: 40, LiveFrac: 0.5, Seed: 3,
	})); err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Build(c, workload.RandomGraph(workload.RandomConfig{
		Sites: sites, Objects: 2000, AvgOut: 2.5, RemoteProb: 0.1, Roots: sites, Seed: 4,
	})); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 6; k++ {
		c.BuildRing()
	}
	before := c.TotalObjects()
	garbageBefore := c.GarbageCount()
	t.Logf("built %d objects, %d initially garbage", before, garbageBefore)

	// Churn: random edge insertions/removals across the whole store,
	// interleaved with rounds. A mutator can only reach live objects, so
	// an insertion targets a globally live object: linking to garbage
	// would resurrect a cycle the collector may already have flagged and
	// partly swept, leaving a dangling reference no collector could avoid.
	allRefs := func() []ids.Ref {
		var out []ids.Ref
		for _, s := range c.Sites() {
			snap := s.AuditSnapshot()
			for obj := range snap.Objects {
				out = append(out, ids.MakeRef(s.ID(), obj))
			}
		}
		return out
	}
	refs := allRefs()
	for step := 0; step < 400; step++ {
		switch rng.Intn(4) {
		case 0:
			from := refs[rng.Intn(len(refs))]
			to := refs[rng.Intn(len(refs))]
			if _, live := c.GlobalLive()[to]; live && c.Site(from.Site).ContainsObject(from.Obj) {
				_ = c.Link(from, to)
			}
		case 1:
			from := refs[rng.Intn(len(refs))]
			s := c.Site(from.Site)
			if fields, err := s.Fields(from.Obj); err == nil && len(fields) > 0 {
				_ = s.RemoveReference(from.Obj, fields[rng.Intn(len(fields))])
			}
		case 2:
			c.Site(ids.SiteID(1 + rng.Intn(sites))).RunLocalTrace()
		case 3:
			for k := 0; k < 3; k++ {
				if n := c.Net().PendingCount(); n > 0 {
					c.Net().DeliverIndex(rng.Intn(n))
				}
			}
		}
	}
	c.Settle()

	rounds, collected := c.CollectUntilStable(80)
	t.Logf("collected %d objects in %d rounds; %d remain", collected, rounds, c.TotalObjects())
	if g := c.GarbageCount(); g != 0 {
		t.Fatalf("%d garbage objects remain", g)
	}
	if got := c.InvariantViolations(); len(got) != 0 {
		t.Fatalf("invariants: %v (showing up to 10: %v)", len(got), got[:min(10, len(got))])
	}

	// Safety: every remaining object is globally reachable, and no live
	// object has a dangling field.
	live := c.GlobalLive()
	if len(live) != c.TotalObjects() {
		t.Fatalf("live=%d objects=%d after stable collection", len(live), c.TotalObjects())
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
