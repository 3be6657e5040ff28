// Command dgcnode runs sites of the back-tracing collector over real TCP.
//
// Two modes:
//
// Demo mode (default) starts every site in one process, connected by real
// TCP sockets on loopback, builds a distributed garbage cycle plus a live
// structure, and collects:
//
//	dgcnode -demo -sites 3
//
// Node mode runs ONE site as its own OS process; peers are listed
// explicitly. Each node serves its peers and runs a local trace every
// -trace-every for -run-for, printing its table sizes. Node mode builds no
// structure of its own; the demo graph exists only in demo mode:
//
//	dgcnode -site 1 -peers 1=:7001,2=host2:7002,3=host3:7003 &
//	dgcnode -site 2 -peers 1=host1:7001,2=:7002,3=host3:7003 &
//	dgcnode -site 3 -peers 1=host1:7001,2=host2:7002,3=:7003 &
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"backtrace"
	"backtrace/internal/cluster"
	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/obs"
	"backtrace/internal/site"
	"backtrace/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dgcnode:", err)
		os.Exit(1)
	}
}

// run parses the command line and starts the demo or the node.
func run(args []string) error {
	fs := flag.NewFlagSet("dgcnode", flag.ExitOnError)
	var (
		demo   = fs.Bool("demo", false, "run all sites in-process over TCP loopback")
		nSites = fs.Int("sites", 3, "number of sites (demo mode)")
		selfID = fs.Uint("site", 0, "this node's site id (node mode)")
		peers  = fs.String("peers", "", "comma-separated id=host:port list (node mode)")
		period = fs.Duration("trace-every", 2*time.Second, "local trace period (node mode)")
		runFor = fs.Duration("run-for", 30*time.Second, "how long a node runs (node mode)")
		debug  = fs.String("debug-addr", "", "serve /metrics (Prometheus), /healthz, and /spans on this address (empty = off)")
		linger = fs.Duration("linger", 0, "keep the debug endpoint up this long after the demo completes (demo mode)")
	)
	var tcfg cluster.TransportConfig
	tcfg.RegisterFlags(fs)
	var knobs site.Config
	knobs.RegisterInboxFlag(fs)
	_ = fs.Parse(args) // ExitOnError: Parse exits on a bad flag

	if *demo || *selfID == 0 {
		return runDemo(*nSites, tcfg.Reliable, knobs, *debug, *linger)
	}
	return runNode(ids.SiteID(*selfID), *peers, *period, *runFor, tcfg.Reliable, knobs, *debug)
}

// startDebugServer serves the observability endpoints on addr and returns
// the bound address and a stop function.
func startDebugServer(addr string, reg *obs.Registry, spans *obs.Collector) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("debug listener: %w", err)
	}
	srv := &http.Server{Handler: backtrace.NewDebugHandler(reg, spans, nil)}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}

// siteConfig is the configuration every dgcnode site runs: the knobs bound
// from the command line, the paper's thresholds, and back-trace timeouts
// sized for a real network.
func siteConfig(knobs site.Config, id ids.SiteID, network transport.Network, counters *metrics.Counters, spans *obs.Collector) site.Config {
	cfg := knobs
	cfg.ID = id
	cfg.Network = network
	cfg.SuspicionThreshold = 3
	cfg.BackThreshold = 7
	cfg.AutoBackTrace = true
	cfg.CallTimeout = 2 * time.Second
	cfg.ReportTimeout = 10 * time.Second
	cfg.Counters = counters
	cfg.Observer = spans
	return cfg
}

// runDemo brings up n sites over loopback TCP (optionally under the
// reliable session layer) and collects a distributed cycle end to end.
// knobs carries the command-line collector knobs (see siteConfig).
func runDemo(n int, reliable bool, knobs site.Config, debugAddr string, linger time.Duration) error {
	counters := &metrics.Counters{}
	spans := backtrace.NewSpanCollector(backtrace.SpanCollectorOptions{})
	if debugAddr != "" {
		bound, stop, err := startDebugServer(debugAddr, counters.Registry(), spans)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Printf("debug endpoint on http://%s (/metrics, /healthz, /spans)\n", bound)
	}
	addrs := make(map[ids.SiteID]string, n)
	for i := 1; i <= n; i++ {
		addrs[ids.SiteID(i)] = "127.0.0.1:0"
	}

	nodes := make(map[ids.SiteID]*transport.TCPNode, n)
	networks := make([]transport.Network, 0, n)
	sites := make(map[ids.SiteID]*site.Site, n)
	bound := make(map[ids.SiteID]string, n)
	for i := 1; i <= n; i++ {
		id := ids.SiteID(i)
		node, err := backtrace.NewTCPNodeOpts(id, addrs, backtrace.TCPOptions{
			Observer: counters.ObserveMessage,
			Counters: counters,
		})
		if err != nil {
			return err
		}
		nodes[id] = node
		var network transport.Network = node
		if reliable {
			network = backtrace.NewReliable(node, backtrace.ReliableOptions{
				Seed:     int64(i),
				Counters: counters,
			})
		}
		networks = append(networks, network)
		sites[id] = site.New(siteConfig(knobs, id, network, counters, spans))
		addr, err := node.Listen()
		if err != nil {
			return err
		}
		bound[id] = addr
	}
	for _, node := range nodes {
		for id, addr := range bound {
			node.SetAddr(id, addr)
		}
	}
	defer func() {
		// Stop the site mailboxes first: a delivery worker blocked on a
		// full inbox would otherwise stall the network shutdown.
		for _, s := range sites {
			s.Close()
		}
		// Closing the session layer (when present) closes its TCP node too.
		for _, nw := range networks {
			nw.Close()
		}
	}()
	if reliable {
		fmt.Printf("%d sites listening on TCP loopback (reliable session layer on)\n", n)
	} else {
		fmt.Printf("%d sites listening on TCP loopback\n", n)
	}

	// Live structure: root at site 1 -> object at site 2.
	root := sites[1].NewRootObject()
	live := sites[2].NewObject()
	if err := tcpLink(sites, root, live); err != nil {
		return err
	}
	// Garbage ring across all sites.
	ring := make([]backtrace.Ref, n)
	for i := 1; i <= n; i++ {
		ring[i-1] = sites[ids.SiteID(i)].NewObject()
	}
	for i := range ring {
		if err := tcpLink(sites, ring[i], ring[(i+1)%len(ring)]); err != nil {
			return err
		}
	}
	fmt.Printf("built: live chain + %d-site garbage ring (over real sockets)\n", n)

	// Collection rounds.
	deadline := time.Now().Add(60 * time.Second)
	round := 0
	for time.Now().Before(deadline) {
		round++
		for i := 1; i <= n; i++ {
			sites[ids.SiteID(i)].RunLocalTrace()
		}
		time.Sleep(50 * time.Millisecond) // let TCP deliveries land
		for i := 1; i <= n; i++ {
			sites[ids.SiteID(i)].CheckTimeouts()
		}
		remaining := 0
		for i := range ring {
			if sites[ring[i].Site].ContainsObject(ring[i].Obj) {
				remaining++
			}
		}
		fmt.Printf("round %2d: ring objects remaining %d\n", round, remaining)
		if remaining == 0 {
			break
		}
	}

	for i := range ring {
		if sites[ring[i].Site].ContainsObject(ring[i].Obj) {
			return fmt.Errorf("ring member %v not collected", ring[i])
		}
	}
	if !sites[1].ContainsObject(root.Obj) || !sites[2].ContainsObject(live.Obj) {
		return fmt.Errorf("live object collected")
	}
	snap := counters.Registry().Snapshot()
	fmt.Printf("\ncycle collected over TCP in %d rounds; live objects intact\n", round)
	fmt.Printf("back traces: %d (garbage %d); messages: %d\n",
		snap.Get("backtrace.started"), snap.Get("backtrace.outcome.garbage"), snap.Get("msg.total"))
	if trees := spans.Trees(); len(trees) > 0 {
		fmt.Printf("span trees assembled: %d (view with -debug-addr and GET /spans)\n", len(trees))
	}
	if debugAddr != "" && linger > 0 {
		fmt.Printf("debug endpoint stays up for %v (-linger)\n", linger)
		time.Sleep(linger)
	}
	return nil
}

// tcpLink builds from -> target across TCP sites, waiting for the
// reference transfer to land.
func tcpLink(sites map[ids.SiteID]*site.Site, from, target backtrace.Ref) error {
	holder := sites[from.Site]
	if target.Site == from.Site {
		return holder.AddReference(from.Obj, target)
	}
	if err := sites[target.Site].SendRef(from.Site, target); err != nil {
		return err
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := holder.AddReference(from.Obj, target); err == nil {
			holder.DropAppRoot(target)
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("link %v -> %v: transfer did not arrive", from, target)
}

// runNode runs one site as its own process.
func runNode(self ids.SiteID, peerList string, period, runFor time.Duration,
	reliable bool, knobs site.Config, debugAddr string) error {
	addrs, err := parsePeers(peerList)
	if err != nil {
		return err
	}
	if _, ok := addrs[self]; !ok {
		return fmt.Errorf("site %v missing from -peers", self)
	}
	counters := &metrics.Counters{}
	spans := backtrace.NewSpanCollector(backtrace.SpanCollectorOptions{})
	if debugAddr != "" {
		bound, stop, err := startDebugServer(debugAddr, counters.Registry(), spans)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Printf("site %v debug endpoint on http://%s\n", self, bound)
	}
	node, err := backtrace.NewTCPNodeOpts(self, addrs, backtrace.TCPOptions{
		Observer: counters.ObserveMessage,
		Counters: counters,
	})
	if err != nil {
		return err
	}
	var network transport.Network = node
	if reliable {
		network = backtrace.NewReliable(node, backtrace.ReliableOptions{
			Seed:     int64(self),
			Counters: counters,
		})
	}
	defer network.Close()
	s := site.New(siteConfig(knobs, self, network, counters, spans))
	defer s.Close() // runs before network.Close: mailbox stops first
	addr, err := node.Listen()
	if err != nil {
		return err
	}
	fmt.Printf("site %v listening on %s\n", self, addr)

	deadline := time.Now().Add(runFor)
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for time.Now().Before(deadline) {
		<-ticker.C
		rep := s.RunLocalTrace()
		s.CheckTimeouts()
		fmt.Printf("site %v: trace collected=%d outrefs-trimmed=%d inrefs=%d outrefs=%d\n",
			self, rep.Collected, rep.OutrefsTrimmed, s.NumInrefs(), s.NumOutrefs())
	}
	return nil
}

func parsePeers(list string) (map[ids.SiteID]string, error) {
	addrs := make(map[ids.SiteID]string)
	if list == "" {
		return addrs, nil
	}
	for _, part := range strings.Split(list, ",") {
		var id uint
		var addr string
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad peer %q (want id=host:port)", part)
		}
		if _, err := fmt.Sscanf(kv[0], "%d", &id); err != nil {
			return nil, fmt.Errorf("bad peer id %q: %v", kv[0], err)
		}
		addr = kv[1]
		addrs[ids.SiteID(id)] = addr
	}
	return addrs, nil
}
