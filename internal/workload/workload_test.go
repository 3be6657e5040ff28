package workload

import (
	"fmt"
	"testing"

	"backtrace/internal/cluster"
	"backtrace/internal/site"
)

func testCluster(n int) *cluster.Cluster {
	return cluster.New(cluster.Options{
		NumSites: n,
		Site: site.Config{
			SuspicionThreshold: 3,
			BackThreshold:      7,
			ThresholdBump:      4,
			AutoBackTrace:      true,
		},
	})
}

func TestRingSpec(t *testing.T) {
	s := Ring(4)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Objects) != 4 || len(s.Edges) != 4 {
		t.Fatalf("ring-4: %d objects, %d edges", len(s.Objects), len(s.Edges))
	}
	if s.InterSiteEdges() != 4 {
		t.Fatalf("ring-4 inter-site edges = %d, want 4", s.InterSiteEdges())
	}
	if s.SitesTouched() != 4 {
		t.Fatalf("ring-4 sites = %d, want 4", s.SitesTouched())
	}
}

func TestRootedRingLive(t *testing.T) {
	c := testCluster(3)
	defer c.Close()
	refs, err := Build(c, RootedRing(3))
	if err != nil {
		t.Fatal(err)
	}
	c.RunRounds(15)
	for _, r := range refs {
		if !c.Site(r.Site).ContainsObject(r.Obj) {
			t.Fatalf("live object %v collected", r)
		}
	}
}

func TestRingBuildsCollectableGarbage(t *testing.T) {
	c := testCluster(3)
	defer c.Close()
	if _, err := Build(c, Ring(3)); err != nil {
		t.Fatal(err)
	}
	if g := c.GarbageCount(); g != 3 {
		t.Fatalf("garbage = %d, want 3", g)
	}
	_, collected := c.CollectUntilStable(40)
	if collected != 3 {
		t.Fatalf("collected %d, want 3", collected)
	}
}

func TestChainSpecs(t *testing.T) {
	unrooted := Chain(4, false)
	if unrooted.InterSiteEdges() != 3 {
		t.Fatalf("chain-4 inter-site edges = %d, want 3", unrooted.InterSiteEdges())
	}
	rooted := Chain(4, true)
	if len(rooted.Objects) != 5 {
		t.Fatal("rooted chain missing root object")
	}
	c := testCluster(4)
	defer c.Close()
	if _, err := Build(c, unrooted); err != nil {
		t.Fatal(err)
	}
	// Acyclic garbage needs no back tracing: local traces + updates
	// collect one link per round from the head.
	collected := c.RunRounds(6)
	if collected != 4 {
		t.Fatalf("chain collected = %d, want 4", collected)
	}
}

func TestDenseCycleValid(t *testing.T) {
	s := DenseCycle(4, 5, 10, 1)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Objects) != 20 {
		t.Fatalf("objects = %d, want 20", len(s.Objects))
	}
	if len(s.Edges) != 30 {
		t.Fatalf("edges = %d, want 20 ring + 10 chords", len(s.Edges))
	}
}

func TestRandomGraphProperties(t *testing.T) {
	cfg := RandomConfig{Sites: 4, Objects: 100, AvgOut: 2, RemoteProb: 0.2, Roots: 3, Seed: 7}
	s := RandomGraph(cfg)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Objects) != 100 || len(s.Edges) != 200 {
		t.Fatalf("sizes wrong: %d objects %d edges", len(s.Objects), len(s.Edges))
	}
	roots := 0
	for _, o := range s.Objects {
		if o.Root {
			roots++
		}
	}
	if roots != 3 {
		t.Fatalf("roots = %d, want 3", roots)
	}
	// Clustering: far fewer inter-site edges than total.
	if is := s.InterSiteEdges(); is > 80 {
		t.Fatalf("inter-site edges = %d, too many for RemoteProb 0.2", is)
	}
	// Determinism.
	s2 := RandomGraph(cfg)
	if len(s2.Edges) != len(s.Edges) || s2.Edges[0] != s.Edges[0] {
		t.Fatal("RandomGraph not deterministic for fixed seed")
	}
}

func TestHypertextWebShape(t *testing.T) {
	cfg := HypertextConfig{Sites: 4, Docs: 6, PagesPerDoc: 5, CrossLinks: 4, LiveFrac: 0.5, Seed: 3}
	s := HypertextWeb(cfg)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	wantObjs := 1 + 6*(1+5)
	if len(s.Objects) != wantObjs {
		t.Fatalf("objects = %d, want %d", len(s.Objects), wantObjs)
	}
	if !s.Objects[0].Root {
		t.Fatal("directory not a root")
	}
	if s.InterSiteEdges() == 0 {
		t.Fatal("hypertext web has no inter-site edges")
	}
}

func TestHypertextEndToEndCollection(t *testing.T) {
	// Orphaned documents are distributed garbage cycles; the collector
	// must reclaim exactly them. The cross-linked webs run at the
	// thresholds the hypertext examples use (T=4, T2=10) and get the
	// 100-round budget they were run with; the plain web keeps its 60.
	cases := []struct {
		cfg       HypertextConfig
		t, t2     int
		maxRounds int
	}{
		{HypertextConfig{Sites: 4, Docs: 5, PagesPerDoc: 4, CrossLinks: 0, LiveFrac: 0.4, Seed: 11}, 3, 7, 60},
		{HypertextConfig{Sites: 5, Docs: 8, PagesPerDoc: 6, CrossLinks: 8, LiveFrac: 0.5, Seed: 42}, 4, 10, 100},
		{HypertextConfig{Sites: 6, Docs: 12, PagesPerDoc: 6, CrossLinks: 12, LiveFrac: 0.5, Seed: 42}, 4, 10, 100},
		{HypertextConfig{Sites: 6, Docs: 24, PagesPerDoc: 6, CrossLinks: 24, LiveFrac: 0.5, Seed: 42}, 4, 10, 100},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("sites-%d/docs-%d", tc.cfg.Sites, tc.cfg.Docs), func(t *testing.T) {
			c := cluster.New(cluster.Options{
				NumSites: tc.cfg.Sites,
				Site: site.Config{
					SuspicionThreshold: tc.t,
					BackThreshold:      tc.t2,
					ThresholdBump:      4,
					AutoBackTrace:      true,
				},
			})
			defer c.Close()
			refs, err := Build(c, HypertextWeb(tc.cfg))
			if err != nil {
				t.Fatal(err)
			}
			garbageBefore := c.GarbageCount()
			if garbageBefore == 0 {
				t.Fatal("shape produced no orphaned documents")
			}
			rounds, collected := c.CollectUntilStable(tc.maxRounds)
			t.Logf("hypertext: %d orphan objects collected in %d rounds", collected, rounds)
			if collected != garbageBefore {
				t.Fatalf("collected %d, want %d", collected, garbageBefore)
			}
			live := c.GlobalLive()
			for _, r := range refs {
				_, isLive := live[r]
				exists := c.Site(r.Site).ContainsObject(r.Obj)
				if isLive && !exists {
					t.Fatalf("live page %v collected", r)
				}
			}
			if got := c.InvariantViolations(); len(got) != 0 {
				t.Fatalf("invariants: %v", got)
			}
		})
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := Spec{Name: "bad-site", Sites: 2, Objects: []ObjSpec{{Site: 5}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid site accepted")
	}
	bad2 := Spec{Name: "bad-edge", Sites: 1, Objects: []ObjSpec{{Site: 1}}, Edges: [][2]int{{0, 3}}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	c := testCluster(1)
	defer c.Close()
	if _, err := Build(c, bad); err == nil {
		t.Fatal("Build accepted invalid spec")
	}
	tooManySites := Ring(3)
	if _, err := Build(c, tooManySites); err == nil {
		t.Fatal("Build accepted spec needing more sites than cluster has")
	}
}
