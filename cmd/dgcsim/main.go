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
//	dgcsim -explore -seeds 50 -faults skip-transfer-barrier -schedule-out failure.json
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
	"backtrace/internal/wire"
	"backtrace/internal/workload"
)

func main() {
	if err := dgcsim(os.Args[1:]); err != nil {
		die(err)
	}
}

// worldFlags are the flags that shape the simulated world of -explore. A
// replay rebuilds its world from the schedule's config block, so it rejects
// them rather than silently ignoring them.
var worldFlags = []string{
	"seed", "sim-steps", "sim-sites", "faults", "threshold", "back-threshold",
}

// dgcsim parses args and runs the chosen mode: a workload, a model-checker
// sweep (-explore) or a schedule replay (-replay).
func dgcsim(args []string) error {
	fs := flag.NewFlagSet("dgcsim", flag.ExitOnError)
	var (
		kind     = fs.String("workload", "ring", "workload: ring, chain, dense, random, hypertext")
		sites    = fs.Int("sites", 4, "number of sites")
		objects  = fs.Int("objects", 200, "objects (random workload)")
		docs     = fs.Int("docs", 10, "documents (hypertext workload)")
		seed     = fs.Int64("seed", 1, "workload and network seed")
		rounds   = fs.Int("rounds", 60, "maximum collection rounds")
		latency  = fs.Duration("latency", 0, "network latency (0 = deterministic stepped mode)")
		jitter   = fs.Duration("jitter", 0, "network jitter")
		drop     = fs.Float64("drop", 0, "message drop probability")
		algo     = fs.String("outsets", "bottom-up", "outset algorithm: bottom-up or independent")
		parallel = fs.Bool("parallel", false, "run sites on goroutines with mailbox executors (disables stepped determinism)")
		verbose  = fs.Bool("v", false, "per-round progress")
		events   = fs.Int("events", 0, fmt.Sprintf("print the last N collector events (at most %d are kept)", obs.MaxEvents))
		dotPath  = fs.String("dot", "", "write a Graphviz DOT snapshot of the final state to this file")
		traceOut = fs.String("trace-out", "", "write the assembled back-trace span trees to this file (JSON when the name ends in .json, rendered text otherwise)")

		// Model-checker mode (internal/sim).
		explore     = fs.Bool("explore", false, "model-check: sweep -seeds seeds of the deterministic simulation")
		seeds       = fs.Int("seeds", 200, "number of seeds to explore")
		simSteps    = fs.Int("sim-steps", 0, "scheduler events per simulated run (0 = default)")
		simSites    = fs.Int("sim-sites", 0, "sites per simulated run (0 = default)")
		faults      = fs.String("faults", "", `fault schedule, e.g. "crash@150:2,restart@300:2,partition@200:1-3"; the clauses skip-transfer-barrier and skip-transfer-check plant a bug`)
		scheduleOut = fs.String("schedule-out", "failure.json", "where -explore writes the shrunk schedule of the first failure")
		replay      = fs.String("replay", "", "replay a recorded schedule file instead of running a workload")
	)
	var tcfg cluster.TransportConfig
	tcfg.RegisterFlags(fs)
	var knobs site.Config
	fs.IntVar(&knobs.SuspicionThreshold, "threshold", 3, "suspicion threshold T (-explore: 2 unless set)")
	fs.IntVar(&knobs.BackThreshold, "back-threshold", 7, "back threshold T2 (-explore: T+2 unless set)")
	fs.Parse(args)

	if !*explore && *replay == "" {
		return run(*kind, *sites, *objects, *docs, *seed, *rounds,
			*latency, *jitter, *drop, *algo, *parallel, knobs, tcfg,
			*verbose, *events, *dotPath, *traceOut)
	}
	// The simulation is stepped, so it has no session layer.
	if err := tcfg.CheckStepped(); err != nil {
		return err
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *replay != "" {
		for _, name := range worldFlags {
			if set[name] {
				return fmt.Errorf("-replay builds its world from the schedule's config block; -%s is not accepted", name)
			}
		}
		return runReplay(*replay, *verbose)
	}
	cfg := sim.Config{
		Seed:   *seed,
		Steps:  *simSteps,
		Sites:  *simSites,
		Faults: *faults,
	}
	// The threshold flags default to the workload mode's T=3, T2=7; the
	// simulator keeps its own defaults unless they are set.
	if set["threshold"] {
		cfg.Threshold = knobs.SuspicionThreshold
	}
	if set["back-threshold"] {
		cfg.BackThreshold = knobs.BackThreshold
	}
	return runExplore(cfg, *seeds, *scheduleOut, *verbose)
}

// run builds the workload on a cluster whose sites take their thresholds
// from knobs, and collects it.
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
		Codec:    wire.Binary{},
		Reliable: tcfg.Reliable,
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
	fmt.Printf("scheduler:   peak inflight %d, peak batch %d, %d deferred\n",
		get("backtrace.inflight"), get("backtrace.batch_size"), get("backtrace.deferred"))
	fmt.Printf("messages:    %d total (BackCall %d, BackReply %d, Report %d, Update %d, dropped %d)\n",
		get("msg.total"), get("msg.BackCall"), get("msg.BackReply"),
		get("msg.Report"), get("msg.Update"), get("msg.dropped"))
	fmt.Printf("wire:        %d frames, %d bytes, %d batch flushes, %d full updates, %d distance entries\n",
		get("wire.frames"), get("wire.bytes"), get("wire.flushes"), get("update.full"), get("update.distances"))
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
