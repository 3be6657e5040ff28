package viz

import (
	"strings"
	"testing"

	"backtrace/internal/cluster"
	"backtrace/internal/site"
)

func testCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c := cluster.New(cluster.Options{
		NumSites: 3,
		Site: site.Config{
			SuspicionThreshold: 3,
			BackThreshold:      1 << 20,
			AutoBackTrace:      false,
		},
	})
	t.Cleanup(c.Close)
	return c
}

func TestClusterDOTStructure(t *testing.T) {
	c := testCluster(t)
	root := c.Site(1).NewRootObject()
	x := c.Site(2).NewObject()
	c.MustLink(root, x)
	c.BuildRing()
	c.RunRounds(8) // make the ring suspected

	dot := ClusterDOT(c)
	for _, want := range []string{
		"digraph backtrace {",
		"subgraph cluster_1", "subgraph cluster_2", "subgraph cluster_3",
		"palegreen",      // the persistent root
		"orange",         // suspected ring members / edges
		"style=dashed",   // inter-site edges
		"s1_o1 -> s2_o1", // root -> x crosses sites 1->2 (first objects)
		"}",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q\n%s", want, dot)
		}
	}
	// Balanced braces.
	if strings.Count(dot, "{") != strings.Count(dot, "}") {
		t.Error("unbalanced braces")
	}
}

func TestClusterDOTFlaggedGarbage(t *testing.T) {
	c := cluster.New(cluster.Options{
		NumSites: 2,
		Site: site.Config{
			SuspicionThreshold: 3,
			BackThreshold:      7,
			ThresholdBump:      4,
			AutoBackTrace:      false,
		},
	})
	defer c.Close()
	objs := c.BuildRing()
	c.RunRounds(8)
	// Confirm the cycle garbage but do NOT run the local traces that
	// delete it: the DOT must show the flagged (red) state.
	if _, ok := c.Site(1).StartBackTrace(objs[1]); !ok {
		t.Fatal("no trace")
	}
	c.Settle()
	dot := ClusterDOT(c)
	if !strings.Contains(dot, "lightcoral") {
		t.Errorf("flagged inrefs not rendered red:\n%s", dot)
	}
}

func TestClusterDOTPinnedEdge(t *testing.T) {
	c := testCluster(t)
	y := c.Site(2).NewObject()
	if err := c.Site(2).SendRef(1, y); err != nil {
		t.Fatal(err)
	}
	c.Settle()
	// Site 1 holds y; forward to site 3 but leave the transfer pending so
	// the pin is visible.
	if err := c.Site(1).SendRef(3, y); err != nil {
		t.Fatal(err)
	}
	x := c.Site(1).NewObject()
	if err := c.Site(1).AddReference(x.Obj, y); err != nil {
		t.Fatal(err)
	}
	dot := ClusterDOT(c)
	if !strings.Contains(dot, "color=blue") {
		t.Errorf("pinned outref edge not blue:\n%s", dot)
	}
}
