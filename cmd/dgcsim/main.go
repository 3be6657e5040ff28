// Command dgcsim runs the back-tracing collector over a chosen workload on
// a simulated multi-site cluster and prints per-round progress and final
// statistics. It is also the front end of the deterministic model checker
// (internal/sim): -explore sweeps seeds and shrinks any oracle failure to a
// minimal schedule; -replay re-executes a recorded schedule exactly.
//
// Usage:
//
//	dgcsim -workload ring -sites 4
//	dgcsim -workload hypertext -sites 6 -docs 12 -seed 7 -v
//	dgcsim -workload random -sites 8 -objects 500 -latency 2ms -drop 0.05
//	dgcsim -workload dense -sites 8 -parallel
//	dgcsim -explore -seeds 200
//	dgcsim -explore -seeds 50 -faults "crash@150:2,restart@300:2"
//	dgcsim -explore -seeds 50 -skip-transfer-barrier -schedule-out failure.json
//	dgcsim -explore -seeds 50 -faults skip-transfer-check -schedule-out failure.json
//	dgcsim -replay failure.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"backtrace"
	"backtrace/internal/cluster"
	"backtrace/internal/obs"
	"backtrace/internal/sim"
	"backtrace/internal/site"
	"backtrace/internal/viz"
	"backtrace/internal/workload"
)

func main() {
	var (
		kind     = flag.String("workload", "ring", "workload: ring, chain, dense, random, hypertext")
		sites    = flag.Int("sites", 4, "number of sites")
		objects  = flag.Int("objects", 200, "objects (random workload)")
		docs     = flag.Int("docs", 10, "documents (hypertext workload)")
		seed     = flag.Int64("seed", 1, "workload and network seed")
		rounds   = flag.Int("rounds", 60, "maximum collection rounds")
		latency  = flag.Duration("latency", 0, "network latency (0 = deterministic stepped mode)")
		jitter   = flag.Duration("jitter", 0, "network jitter")
		drop     = flag.Float64("drop", 0, "message drop probability")
		algo     = flag.String("outsets", "bottom-up", "outset algorithm: bottom-up or independent")
		parallel = flag.Bool("parallel", false, "run sites on goroutines with mailbox executors (disables stepped determinism)")
		verbose  = flag.Bool("v", false, "per-round progress")
		events   = flag.Int("events", 0, fmt.Sprintf("print the last N collector events (at most %d are kept)", obs.MaxEvents))
		dotPath  = flag.String("dot", "", "write a Graphviz DOT snapshot of the final state to this file")
		traceOut = flag.String("trace-out", "", "write the assembled back-trace span trees to this file (JSON when the name ends in .json, rendered text otherwise)")

		// Model-checker mode (internal/sim).
		explore     = flag.Bool("explore", false, "model-check: sweep -seeds seeds of the deterministic simulation")
		seeds       = flag.Int("seeds", 200, "number of seeds to explore")
		simSteps    = flag.Int("sim-steps", 0, "scheduler events per simulated run (0 = default)")
		simSites    = flag.Int("sim-sites", 0, "sites per simulated run (0 = default)")
		faults      = flag.String("faults", "", `fault schedule, e.g. "crash@150:2,restart@300:2,partition@200:1-3"; the clause skip-transfer-check plants a bug`)
		skipBarrier = flag.Bool("skip-transfer-barrier", false, "UNSAFE: disable the Section 6.1.1 transfer barrier (regression-injection demo)")
		scheduleOut = flag.String("schedule-out", "failure.json", "where -explore writes the shrunk schedule of the first failure")
		replay      = flag.String("replay", "", "replay a recorded schedule file instead of running a workload")
	)
	var tcfg cluster.TransportConfig
	tcfg.RegisterFlags(nil)
	var knobs site.Config
	knobs.RegisterFlags(nil)
	flag.IntVar(&knobs.SuspicionThreshold, "threshold", 3, "suspicion threshold T")
	flag.IntVar(&knobs.BackThreshold, "back-threshold", 7, "back threshold T2")
	flag.Parse()

	if *explore || *replay != "" {
		// The simulation is stepped, so it has no session-layer batcher;
		// the codec round-trips every message at the network boundary
		// ("none" skips serialization entirely).
		if err := tcfg.CheckStepped(); err != nil {
			die(err)
		}
		simCodec := tcfg.Codec
		if simCodec == "none" {
			simCodec = ""
		}
		cfg := sim.Config{
			Seed:                *seed,
			Steps:               *simSteps,
			Sites:               *simSites,
			Faults:              *faults,
			SkipTransferBarrier: *skipBarrier,
			Shards:              knobs.Shards,
			Codec:               simCodec,
			MaxInflightTraces:   knobs.MaxInflightTraces,
			TraceBatch:          knobs.TraceBatch,
			MemoizeLive:         knobs.MemoizeLive,
		}
		var err error
		if *replay != "" {
			err = runReplay(*replay, *verbose)
		} else {
			err = runExplore(cfg, *seeds, *scheduleOut, *verbose)
		}
		if err != nil {
			die(err)
		}
		return
	}

	if err := run(*kind, *sites, *objects, *docs, *seed, *rounds,
		*latency, *jitter, *drop, *algo, *parallel, knobs, tcfg,
		*verbose, *events, *dotPath, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "dgcsim:", err)
		os.Exit(1)
	}
}

// run builds the workload on a cluster whose sites take their thresholds,
// sharding and scheduler knobs from knobs, and collects it.
func run(kind string, sites, objects, docs int, seed int64, rounds int,
	latency, jitter time.Duration, drop float64, algoName string, parallel bool,
	knobs site.Config, tcfg cluster.TransportConfig, verbose bool, eventTail int, dotPath, traceOut string) error {

	var spec workload.Spec
	switch kind {
	case "ring":
		spec = workload.Ring(sites)
	case "chain":
		spec = workload.Chain(sites, false)
	case "dense":
		spec = workload.DenseCycle(sites, 4, sites, seed)
	case "random":
		spec = workload.RandomGraph(workload.RandomConfig{
			Sites: sites, Objects: objects, AvgOut: 2,
			RemoteProb: 0.15, Roots: sites, Seed: seed,
		})
	case "hypertext":
		spec = workload.HypertextWeb(workload.HypertextConfig{
			Sites: sites, Docs: docs, PagesPerDoc: 6,
			CrossLinks: docs, LiveFrac: 0.5, Seed: seed,
		})
	default:
		return fmt.Errorf("unknown workload %q", kind)
	}

	algo := backtrace.AlgoBottomUp
	if algoName == "independent" {
		algo = backtrace.AlgoIndependent
	}

	opts := cluster.Options{
		NumSites: sites,
		Parallel: parallel,
		Latency:  latency,
		Jitter:   jitter,
		// Loss is enabled only after the workload is built: the build
		// protocol is the experiment's setup, not its subject.
		Seed: seed,
		Site: knobs,
	}
	opts.Site.ThresholdBump = 4
	opts.Site.OutsetAlgorithm = algo
	opts.Site.AutoBackTrace = true
	opts.Site.CallTimeout = 500 * time.Millisecond
	opts.Site.ReportTimeout = 2 * time.Second
	if err := tcfg.Apply(&opts); err != nil {
		return err
	}
	c := cluster.New(opts)
	defer c.Close()

	refs, err := workload.Build(c, spec)
	if err != nil {
		return err
	}
	garbage := c.GarbageCount()
	fmt.Printf("workload %s: %d objects on %d sites, %d inter-site refs, %d garbage\n",
		spec.Name, len(refs), sites, spec.InterSiteEdges(), garbage)
	if drop > 0 {
		c.Net().SetDropProb(drop)
		fmt.Printf("message loss enabled: %.0f%% per message\n", drop*100)
	}

	start := time.Now()
	totalCollected := 0
	round := 0
	for ; round < rounds && c.GarbageCount() > 0; round++ {
		collected := 0
		traces := 0
		for _, rep := range c.RunRound() {
			collected += rep.Collected
			traces += rep.BackTracesStarted
		}
		c.CheckAllTimeouts()
		totalCollected += collected
		if verbose {
			fmt.Printf("round %3d: collected %-4d back-traces %-3d objects-left %d\n",
				round+1, collected, traces, c.TotalObjects())
		}
	}
	elapsed := time.Since(start)

	fmt.Printf("\ncollected %d/%d garbage objects in %d rounds (%v)\n",
		totalCollected, garbage, round, elapsed.Round(time.Millisecond))
	if g := c.GarbageCount(); g > 0 {
		fmt.Printf("WARNING: %d garbage objects remain (raise -rounds)\n", g)
	}
	fmt.Printf("%d live objects remain\n", c.TotalObjects())

	get := c.Metrics().Get
	fmt.Printf("\nback traces: %d started, %d garbage, %d live\n",
		get("backtrace.started"), get("backtrace.outcome.garbage"), get("backtrace.outcome.live"))
	if knobs.MaxInflightTraces > 0 || knobs.TraceBatch > 1 || knobs.MemoizeLive {
		fmt.Printf("scheduler:   peak inflight %d, peak batch %d, %d deferred, %d memo hits\n",
			get("backtrace.inflight"), get("backtrace.batch_size"),
			get("backtrace.deferred"), get("backtrace.memo_hits"))
	}
	fmt.Printf("messages:    %d total (BackCall %d, BackReply %d, Report %d, Update %d, dropped %d)\n",
		get("msg.total"), get("msg.BackCall"), get("msg.BackReply"),
		get("msg.Report"), get("msg.Update"), get("msg.dropped"))
	if get("wire.bytes") > 0 {
		fmt.Printf("wire:        %d frames, %d bytes (%s codec), %d batch flushes\n",
			get("wire.frames"), get("wire.bytes"), tcfg.Codec, get("wire.flushes"))
	}
	fmt.Printf("local GC:    %d traces, %d objects scanned, %d collected\n",
		get("localtrace.runs"), get("localtrace.objects"), get("localtrace.collected"))
	fmt.Printf("outsets:     %d unions (%d memoized), peak back info %d pairs\n",
		get("outsets.unions"), get("outsets.unions.memoized"), get("backinfo.peak"))

	if dotPath != "" {
		if err := os.WriteFile(dotPath, []byte(viz.ClusterDOT(c)), 0o644); err != nil {
			return fmt.Errorf("write dot: %w", err)
		}
		fmt.Printf("\nDOT snapshot written to %s (render with: dot -Tsvg %s)\n", dotPath, dotPath)
	}

	if traceOut != "" {
		if err := writeTraceOut(traceOut, c); err != nil {
			return err
		}
		fmt.Printf("\nspan trees written to %s\n", traceOut)
	}

	if eventTail > 0 {
		all, evicted := c.Spans().Events()
		if len(all) > eventTail {
			all = all[len(all)-eventTail:]
		}
		fmt.Printf("\nlast %d collector events (%d evicted):\n", len(all), evicted)
		for _, e := range all {
			fmt.Println(" ", e)
		}
	}
	return nil
}

// writeTraceOut dumps the cluster's assembled span trees: JSON for .json
// paths, the human-readable tree rendering otherwise.
func writeTraceOut(path string, c *cluster.Cluster) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	defer f.Close()
	if strings.HasSuffix(path, ".json") {
		if err := c.Spans().WriteJSON(f); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		return nil
	}
	if _, err := f.WriteString(c.Spans().RenderTrees()); err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	return nil
}
