package backtrace_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"backtrace"
)

// TestPublicAPISurface exercises the facade end to end: clusters, the
// mutator API, workload generators, transactions, metrics.
func TestPublicAPISurface(t *testing.T) {
	c := backtrace.NewCluster(backtrace.ClusterOptions{
		NumSites: 3,
		Site: backtrace.SiteConfig{
			AutoBackTrace: true,
		},
	})
	defer c.Close()

	root := c.Site(1).NewRootObject()
	if root.IsZero() || root.Site != 1 {
		t.Fatalf("root ref = %v", root)
	}
	if backtrace.MakeRef(2, 7) != (backtrace.Ref{Site: 2, Obj: 7}) {
		t.Fatal("MakeRef disagrees with literal")
	}

	// Workload generators are usable through the facade.
	spec := backtrace.Ring(3)
	if spec.Sites != 3 || spec.InterSiteEdges() != 3 {
		t.Fatalf("ring spec wrong: %+v", spec)
	}
	refs, err := backtrace.BuildWorkload(c, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 3 {
		t.Fatalf("built %d refs", len(refs))
	}

	rounds, collected := c.CollectUntilStable(40)
	if collected != 3 {
		t.Fatalf("collected %d in %d rounds, want 3", collected, rounds)
	}
	if !c.Site(1).ContainsObject(root.Obj) {
		t.Fatal("root collected")
	}

	// Transactional layer through the facade.
	client := backtrace.NewTxnClient("api-test", backtrace.TxnSites(c))
	client.SetSettle(c.Settle)
	tx := client.Begin()
	obj, err := tx.Create(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if obj.Ref().IsZero() {
		t.Fatal("created object has no ref")
	}
	client.Close()

	// Metrics are visible.
	if c.Metrics().Get("backtrace.started") == 0 {
		t.Fatal("no back traces recorded")
	}
}

// TestPublicTelemetryAPI exercises the redesigned observability surface
// through the facade: Observer wiring, span collection, typed metrics
// snapshots, and the debug HTTP handler.
func TestPublicTelemetryAPI(t *testing.T) {
	extra := backtrace.NewSpanCollector(backtrace.SpanCollectorOptions{})
	c := backtrace.NewCluster(backtrace.ClusterOptions{
		NumSites: 3,
		Site: backtrace.SiteConfig{
			AutoBackTrace: true,
			Observer:      backtrace.TeeObservers(nil, extra),
		},
	})
	defer c.Close()

	c.BuildRing()
	if _, collected := c.CollectUntilStable(40); collected != 3 {
		t.Fatalf("collected %d, want 3", collected)
	}

	// The cluster's built-in collector assembled complete span trees, and
	// the user-supplied observer saw the same spans.
	trees := c.Spans().Trees()
	if len(trees) == 0 {
		t.Fatal("no span trees collected")
	}
	var garbage *backtrace.SpanTree
	for _, tree := range trees {
		if tree.Root != nil && tree.Root.Verdict == 0 /* garbage */ {
			garbage = tree
		}
	}
	if garbage == nil {
		t.Fatalf("no garbage-verdict tree among %d trees", len(trees))
	}
	if !garbage.Complete() {
		t.Fatalf("garbage tree incomplete: %+v", garbage)
	}
	if len(garbage.Root.Participants) != 3 || len(garbage.Participants) != 3 {
		t.Fatalf("want all 3 sites in tree, got root=%v spans=%d",
			garbage.Root.Participants, len(garbage.Participants))
	}
	if len(extra.Trees()) != len(trees) {
		t.Fatalf("teed observer saw %d trees, cluster %d", len(extra.Trees()), len(trees))
	}

	// The same stream carries the events: each tree's root has its
	// trace-completed event, in both collectors.
	events, _ := c.Spans().Events()
	extraEvents, _ := extra.Events()
	var completed, roots int
	for _, e := range events {
		if e.Kind.String() == "trace-completed" {
			completed++
		}
	}
	for _, tree := range trees {
		if tree.Root != nil {
			roots++
		}
	}
	if completed != roots || len(extraEvents) != len(events) {
		t.Fatalf("%d trace-completed events for %d root spans; teed observer saw %d of %d events",
			completed, roots, len(extraEvents), len(events))
	}

	// Site and cluster snapshots read the one shared registry, and the
	// span kinds render.
	snap := c.Metrics()
	if snap.Get("backtrace.started") != c.Site(1).Metrics().Get("backtrace.started") {
		t.Fatal("site snapshot disagrees with cluster snapshot")
	}
	if rtt := snap.Histograms["backtrace.rtt_seconds"]; rtt.Count == 0 {
		t.Fatal("no back-trace RTT observations")
	}
	if lt := snap.Histograms["localtrace.duration_seconds"]; lt.Count == 0 {
		t.Fatal("no local-trace duration observations")
	}
	for _, k := range []backtrace.SpanKind{
		backtrace.SpanBackTrace, backtrace.SpanParticipant,
		backtrace.SpanLocalTrace, backtrace.SpanReport,
	} {
		if k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}

	// The debug handler serves the registry and the collector.
	srv := httptest.NewServer(backtrace.NewDebugHandler(c.Registry(), c.Spans(), nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1<<20)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if !strings.Contains(string(body[:n]), "backtrace_rtt_seconds_count") {
		t.Fatalf("/metrics missing RTT histogram:\n%s", body[:n])
	}
}

func TestPublicAPIOutsetAlgorithms(t *testing.T) {
	for _, algo := range []backtrace.OutsetAlgorithm{backtrace.AlgoBottomUp, backtrace.AlgoIndependent} {
		c := backtrace.NewCluster(backtrace.ClusterOptions{
			NumSites: 2,
			Site: backtrace.SiteConfig{
				AutoBackTrace:   true,
				OutsetAlgorithm: algo,
			},
		})
		c.BuildRing()
		if _, collected := c.CollectUntilStable(40); collected != 2 {
			t.Fatalf("algo %v: collected %d", algo, collected)
		}
		c.Close()
	}
}

func TestPublicAPIMemNetwork(t *testing.T) {
	net := backtrace.NewMemNetwork(backtrace.NetworkOptions{Stepped: true, Codec: backtrace.BinaryCodec})
	defer net.Close()
	s1 := backtrace.NewSite(backtrace.SiteConfig{ID: 1, Network: net})
	s2 := backtrace.NewSite(backtrace.SiteConfig{ID: 2, Network: net})

	root := s1.NewRootObject()
	obj := s2.NewObject()
	if err := s2.SendRef(1, obj); err != nil {
		t.Fatal(err)
	}
	net.DeliverAll()
	if err := s1.AddReference(root.Obj, obj); err != nil {
		t.Fatal(err)
	}
	s1.DropAppRoot(obj)
	net.DeliverAll()
	s1.RunLocalTrace()
	net.DeliverAll()
	s2.RunLocalTrace()
	net.DeliverAll()
	if !s2.ContainsObject(obj.Obj) {
		t.Fatal("referenced object collected")
	}
}

// ExampleNewTxnClient demonstrates the transactional client-caching
// mutator layer: create objects across sites in one transaction, orphan
// them in another, and let the collector reclaim the cycle.
func ExampleNewTxnClient() {
	c := backtrace.NewCluster(backtrace.ClusterOptions{
		NumSites: 2,
		Site: backtrace.SiteConfig{
			AutoBackTrace: true,
		},
	})
	defer c.Close()

	client := backtrace.NewTxnClient("example", backtrace.TxnSites(c))
	client.SetSettle(c.Settle)

	// Transaction 1: a root directory on site 1 holding object a, with
	// b@site2 referencing a.
	tx := client.Begin()
	a, _ := tx.Create(1)
	b, _ := tx.Create(2, a) // b -> a
	root, _ := tx.CreateRoot(1, a)
	if err := tx.Commit(); err != nil {
		panic(err)
	}

	// Transaction 2: close the cycle (a -> b) and orphan it from the
	// directory in one commit.
	tx2 := client.Begin()
	fields, _ := tx2.Read(a.Ref())
	if err := tx2.Write(a.Ref(), append(fields, b.Ref())); err != nil {
		panic(err)
	}
	if _, err := tx2.Read(root.Ref()); err != nil {
		panic(err)
	}
	if err := tx2.Write(root.Ref(), nil); err != nil {
		panic(err)
	}
	if err := tx2.Commit(); err != nil {
		panic(err)
	}
	client.Close() // release the cache holds

	_, collected := c.CollectUntilStable(40)
	fmt.Println("collected after client closed:", collected)
	// Output:
	// collected after client closed: 2
}

// Example demonstrates collecting a distributed garbage cycle.
func Example() {
	c := backtrace.NewCluster(backtrace.ClusterOptions{
		NumSites: 3,
		Site: backtrace.SiteConfig{
			AutoBackTrace: true,
		},
	})
	defer c.Close()

	// A persistent root keeps one object alive; a two-site cycle is
	// unreachable.
	root := c.Site(1).NewRootObject()
	live := c.Site(2).NewObject()
	c.MustLink(root, live)
	x := c.Site(2).NewObject()
	y := c.Site(3).NewObject()
	c.MustLink(x, y)
	c.MustLink(y, x)

	_, collected := c.CollectUntilStable(40)
	fmt.Println("collected:", collected)
	fmt.Println("live object intact:", c.Site(2).ContainsObject(live.Obj))
	// Output:
	// collected: 2
	// live object intact: true
}
