// Command bench is dgc-e2e, the repository's one end-to-end benchmark: it
// brings the collector up in the shape people deploy, drives it with a
// seeded closed-loop load, checks that what was collected was garbage and
// only garbage, and prints every metric by name with its unit. See README.md
// in this directory.
//
//	go run . -workload ring-churn -seed 1 -seconds 10 -trace 0   # end-to-end metrics
//	go run . -workload ring-churn -seed 1 -seconds 10 -trace 1   # per-layer metrics + span file
//	go run .                                                     # all four workloads, both runs
//	go run . -workload storm -repeat 10                          # medians, quartiles, spreads
//	go run . -selfcheck                                          # storm's counts repeat exactly
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"backtrace/internal/metrics"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last line of output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run: ring-churn, hypertext-edit, actor-mesh, storm, or all")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", 10, "length of the measured window")
		trace        = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics and a span file")
		spans        = flag.String("spans", "", "span file of a traced run (default .bench_build/spans-<workload>.json)")
		repeat       = flag.Int("repeat", 0, "run the untraced benchmark this many times (seeds seed, seed+1, ...) and print median, quartiles and spread per end-to-end metric")
		selfcheck    = flag.Bool("selfcheck", false, "assert that storm's message, trace and round counts repeat exactly for one seed and differ for another")
	)
	flag.Parse()
	// GOMAXPROCS is pinned so shard counts and scheduling do not follow the
	// host's core count beyond four.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	window := time.Duration(*seconds * float64(time.Second))

	var err error
	switch {
	case *selfcheck:
		err = runSelfcheck(*seed)
	case *repeat > 0:
		err = runRepeat(*workloadName, *seed, *seconds, *repeat)
	case *workloadName == "all":
		err = runAll(*seed, window)
	default:
		err = runOne(*workloadName, *seed, window, *trace == 1, *spans)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// environment is printed with every output.
func environment() map[string]any {
	commit := os.Getenv("BENCH_COMMIT")
	if info, ok := debug.ReadBuildInfo(); ok && commit == "" {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit,
		"shape":      shapeConstants(),
		// No metric of this benchmark is a parallel speed-up; on a
		// one-CPU host none could be claimed from it.
		"parallel_claims": map[bool]string{true: "refused: NumCPU == 1", false: "none made"}[runtime.NumCPU() == 1],
	}
}

func printEnvironment() {
	b, _ := json.Marshal(environment()) // a map of plain values cannot fail to marshal
	fmt.Printf("env %s\n", b)
}

// outcome is one workload's measured metrics plus its verdict.
type outcome struct {
	values    map[string]float64
	defs      []metricDef
	attempted int
	failed    int
	oracle    oracleReport
	notes     []string
}

func (o *outcome) absorb(r *result) {
	o.attempted += r.attempted()
	o.failed += r.failed() + r.settleFailures
	o.oracle.Count += r.oracle.Count
	o.oracle.Violations = append(o.oracle.Violations, r.oracle.Violations...)
}

// measureEndToEnd is the untraced run: three timed set-ups, one full window.
func measureEndToEnd(w *workloadDef, seed int64, window time.Duration) (*outcome, error) {
	r, err := runWorkload(w, seed, window, false, 3)
	if err != nil {
		return nil, err
	}
	o := &outcome{values: endToEnd(r), defs: endToEndDefs}
	o.absorb(r)
	latMs, _ := r.sweepStats()
	o.notes = append(o.notes,
		fmt.Sprintf("window %.2fs, %d rounds, %d structures swept (%d objects), %d expired",
			r.windowS, r.rounds, len(r.t.sweeps), int(r.reclaimed()), r.t.expired),
		fmt.Sprintf("collect latency: %d samples, p90 %.3f ms, highest percentile with %d samples beyond it: p%g = %.3f ms",
			len(latMs), quantile(latMs, 0.9), tailSamples, 100*highestPercentile(len(latMs)), quantile(latMs, highestPercentile(len(latMs)))),
		fmt.Sprintf("link latency: %d samples; mutator: %d ops, generator late p50 %.0f us",
			len(r.t.linkUs), r.t.mutOps, quantile(r.t.mutLateUs, 0.5)),
		fmt.Sprintf("mutator latency from due time, us: p50 %.1f p99 %.1f max %.1f; stall beyond %d us %.3f ms/s",
			quantile(r.t.mutLatUs, 0.5), quantile(r.t.mutLatUs, 0.99), quantile(r.t.mutLatUs, 1), stallThresholdUs, stallMsPerS(r)),
		fmt.Sprintf("%d slices; over the whole window: reclaimed_per_s %.2f, cpu_ms_per_reclaimed %.5f",
			len(r.t.slices), ratio(r.reclaimed(), r.windowS), ratio(r.cpuS*1e3, r.reclaimed())),
		fmt.Sprintf("failed_ops_ratio %.6f (%d of %d: %d expired, %d link timeouts, %d op errors, %d settle timeouts)",
			ratio(float64(o.failed), float64(o.attempted)), o.failed, o.attempted,
			r.t.expired, r.t.linkTimeouts, r.t.mutErrors, r.settleFailures),
	)
	if r.waves > 0 {
		o.notes = append(o.notes, fmt.Sprintf("storm: %d waves; per wave msgs %d, traces %d, rounds %d",
			r.waves, r.d.counters[metrics.MsgTotal]/int64(r.waves), r.d.counters[metrics.BackTracesStarted]/int64(r.waves), r.rounds/r.waves))
	}
	return o, nil
}

// measurePerLayer is the traced run: half the window untraced (the reference
// for the tracing overhead), half traced on a fresh cluster, then the
// replays. It writes the span file.
func measurePerLayer(w *workloadDef, seed int64, window time.Duration, spanPath string) (*outcome, error) {
	untraced, err := runWorkload(w, seed, window/2, false, 1)
	if err != nil {
		return nil, err
	}
	traced, err := runWorkload(w, seed, window/2, true, 1)
	if err != nil {
		return nil, err
	}
	base, err := baselineRows(w, seed)
	if err != nil {
		return nil, err
	}
	o := &outcome{values: perLayer(traced, untraced, base), defs: perLayerDefs}
	o.absorb(untraced)
	o.absorb(traced)
	if spanPath == "" {
		spanPath = filepath.Join(".bench_build", "spans-"+w.name+".json")
	}
	if err := traced.rec.writeFile(spanPath, environment()); err != nil {
		return nil, err
	}
	o.notes = append(o.notes,
		fmt.Sprintf("traced window %.2fs, %d spans written to %s", traced.windowS, len(traced.rec.spans), spanPath),
		fmt.Sprintf("full-trace fallback reasons: %v", traced.t.fallbacks))
	return o, nil
}

func (o *outcome) print(w *workloadDef) {
	fmt.Printf("workload %s (%s shape)\n", w.name, w.shape)
	for _, n := range o.notes {
		fmt.Printf("  # %s\n", n)
	}
	for _, d := range o.defs {
		fmt.Printf("  %-40s %16.6f %s\n", d.name, o.values[d.name], d.unit)
	}
	for _, v := range o.oracle.Violations {
		fmt.Printf("  ORACLE VIOLATION: %s\n", v)
	}
	if o.oracle.Count > len(o.oracle.Violations) {
		fmt.Printf("  ORACLE VIOLATION: ... and %d more\n", o.oracle.Count-len(o.oracle.Violations))
	}
}

func (o *outcome) report(prefix string, into *report) {
	into.Correct = into.Correct && o.oracle.Count == 0
	into.Attempted += o.attempted
	into.Failed += o.failed
	for _, d := range o.defs {
		v := o.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		into.Metrics[prefix+d.name] = metricValue{Value: v, Unit: d.unit}
	}
}

func finishReport(rep *report) error {
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !rep.Correct {
		return fmt.Errorf("oracle found violations")
	}
	return nil
}

func runOne(name string, seed int64, window time.Duration, traced bool, spanPath string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	printEnvironment()
	var o *outcome
	if traced {
		o, err = measurePerLayer(w, seed, window, spanPath)
	} else {
		o, err = measureEndToEnd(w, seed, window)
	}
	if err != nil {
		return err
	}
	o.print(w)
	rep := &report{Correct: true, Metrics: map[string]metricValue{}}
	o.report("", rep)
	return finishReport(rep)
}

func runAll(seed int64, window time.Duration) error {
	printEnvironment()
	rep := &report{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range workloads {
		e2e, err := measureEndToEnd(w, seed, window)
		if err != nil {
			return err
		}
		e2e.print(w)
		e2e.report(w.name+"/", rep)
		layers, err := measurePerLayer(w, seed, window, "")
		if err != nil {
			return err
		}
		layers.print(w)
		layers.report(w.name+"/", rep)
	}
	return finishReport(rep)
}

// runRepeat runs the untraced benchmark n times per workload, each in its own
// process exactly as the driver runs it, and prints what the bounds in
// BENCHMARK.json are set from.
func runRepeat(name string, seed int64, seconds float64, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := []string{name}
	if name == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	printEnvironment()
	for _, wn := range names {
		samples := map[string][]float64{}
		for i := 0; i < n; i++ {
			out, err := exec.Command(self, "-workload", wn, "-seed", fmt.Sprint(seed+int64(i)),
				"-seconds", fmt.Sprint(seconds), "-trace", "0").Output()
			if err != nil {
				return fmt.Errorf("repeat %s seed %d: %w", wn, seed+int64(i), err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				return fmt.Errorf("repeat %s: last line is not a report: %w", wn, err)
			}
			for k, v := range rep.Metrics {
				samples[k] = append(samples[k], v.Value)
			}
		}
		fmt.Printf("workload %s: %d runs, seeds %d..%d\n", wn, n, seed, seed+int64(n)-1)
		fmt.Printf("  %-28s %14s %14s %14s %9s\n", "metric", "q1", "median", "q3", "spread")
		for _, d := range endToEndDefs {
			q1, med, q3, spread := quartileSpread(samples[d.name])
			fmt.Printf("  %-28s %14.4f %14.4f %14.4f %8.2f%% %s\n", d.name, q1, med, q3, 100*spread, d.unit)
		}
	}
	return nil
}

// runSelfcheck asserts storm's determinism: two runs of one seed agree on
// every count, a run of another seed does not.
func runSelfcheck(seed int64) error {
	w, err := findWorkload("storm")
	if err != nil {
		return err
	}
	counts := func(seed int64) ([3]int64, error) {
		r, err := runStorm(w, seed, 0, false, 2)
		if err != nil {
			return [3]int64{}, err
		}
		if r.oracle.Count > 0 {
			return [3]int64{}, fmt.Errorf("seed %d: oracle: %v", seed, r.oracle.Violations)
		}
		return [3]int64{r.d.counters[metrics.MsgTotal], r.d.counters[metrics.BackTracesStarted], int64(r.rounds)}, nil
	}
	a, err := counts(seed)
	if err != nil {
		return err
	}
	b, err := counts(seed)
	if err != nil {
		return err
	}
	c, err := counts(seed + 1)
	if err != nil {
		return err
	}
	fmt.Printf("storm seed %d: msgs %d traces %d rounds %d\n", seed, a[0], a[1], a[2])
	fmt.Printf("storm seed %d: msgs %d traces %d rounds %d\n", seed+1, c[0], c[1], c[2])
	if a != b {
		return fmt.Errorf("selfcheck: seed %d gave %v then %v", seed, a, b)
	}
	if a == c {
		return fmt.Errorf("selfcheck: seeds %d and %d gave identical counts %v", seed, seed+1, a)
	}
	fmt.Println("selfcheck ok: counts repeat exactly for one seed and differ for another")
	return nil
}
