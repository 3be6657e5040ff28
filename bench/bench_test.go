package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/obs"
	"backtrace/internal/site"
)

func TestQuantileAndSampleCountRules(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {1, 10}, {0.01, 1}} {
		if got := quantile(v, c.p); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing should be 0")
	}
	// A percentile needs ten samples beyond it.
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{99, 0.9, false}, {100, 0.9, true}, {999, 0.99, false}, {1000, 0.99, true}, {20, 0.5, true}} {
		if got := tailOK(c.n, c.p); got != c.want {
			t.Errorf("tailOK(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 0.5}, {40, 0.75}, {100, 0.9}, {200, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartileSpreadMatchesPython(t *testing.T) {
	q1, med, q3, spread := quartileSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	if want := 5.5 / 5.5; math.Abs(spread-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", spread, want)
	}
}

func TestFIFOMatcherPairsPerLink(t *testing.T) {
	f := fifoMatcher{}
	f.sent(1, 2, 100)
	f.sent(1, 3, 150)
	f.sent(1, 2, 200)
	if _, ok := f.delivered(2, 1); ok {
		t.Fatal("a delivery on a link nothing was sent on must not match")
	}
	for _, c := range []struct {
		to   ids.SiteID
		want int64
	}{{2, 100}, {3, 150}, {2, 200}} {
		got, ok := f.delivered(1, c.to)
		if !ok || got != c.want {
			t.Fatalf("delivered(1,%v) = %v,%v want %v", c.to, got, ok, c.want)
		}
	}
	if _, ok := f.delivered(1, 2); ok {
		t.Fatal("link 1→2 should be drained")
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	d := newRegDelta()
	reg := obs.NewRegistry()
	before := reg.Snapshot()
	h := reg.Histogram("t.seconds", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.5, 3} {
		h.Observe(v)
	}
	d.addWindow(before, reg.Snapshot())
	if got := histQuantile(d.hists["t.seconds"], 0.5); got != 1.5 {
		t.Fatalf("p50 = %v, want 1.5 (midway through the (1,2] bucket)", got)
	}
}

func TestGeneratorsAreDeterministicBySeed(t *testing.T) {
	for _, w := range workloads {
		gen := func(seed int64) []*plan {
			rng := rand.New(rand.NewSource(seed))
			out := []*plan{w.live(rand.New(rand.NewSource(seed)))}
			for i := 0; i < 6; i++ {
				out = append(out, w.garbage(rng, i))
			}
			return out
		}
		a, b, c := gen(7), gen(7), gen(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different plans", w.name)
		}
		if reflect.DeepEqual(a[1:], c[1:]) {
			t.Errorf("%s: different seeds gave identical garbage plans", w.name)
		}
		// Seeds choose placement, never amounts.
		for i := range a {
			if len(a[i].sites) != len(c[i].sites) || len(a[i].edges) != len(c[i].edges) {
				t.Errorf("%s: plan %d changes size with the seed", w.name, i)
			}
		}
	}
	if p := actorGroupPlan(rand.New(rand.NewSource(1)), 0); len(p.sites) != 400 || p.crossEdges() != 800 {
		t.Errorf("actor group: %d actors, %d cross-site edges; want 400 and 800", len(p.sites), p.crossEdges())
	}
}

func (p *plan) crossEdges() int {
	n := 0
	for _, e := range p.edges {
		if p.sites[e[0]] != p.sites[e[1]] {
			n++
		}
	}
	return n
}

// cleanAudits is a two-site world: root 1:1 → 1:2 → 2:1 (outref at site 1,
// inref at site 2 listing site 1).
func cleanAudits() (map[ids.SiteID]site.Audit, []ids.Ref) {
	r := ids.MakeRef
	audits := map[ids.SiteID]site.Audit{
		1: {
			Objects:         map[ids.ObjID][]ids.Ref{1: {r(1, 2)}, 2: {r(2, 1)}},
			PersistentRoots: []ids.ObjID{1},
			Outrefs:         map[ids.Ref]struct{}{r(2, 1): {}},
			InrefSources:    map[ids.ObjID][]ids.SiteID{},
		},
		2: {
			Objects:      map[ids.ObjID][]ids.Ref{1: nil},
			Outrefs:      map[ids.Ref]struct{}{},
			InrefSources: map[ids.ObjID][]ids.SiteID{1: {1}},
		},
	}
	return audits, []ids.Ref{r(1, 1), r(1, 2), r(2, 1)}
}

func TestOracleRejectsDoctoredAudits(t *testing.T) {
	audits, live := cleanAudits()
	if rep := checkCluster(audits, live, nil); rep.Count != 0 {
		t.Fatalf("clean audit rejected: %v", rep.Violations)
	}
	doctor := map[string]func(map[ids.SiteID]site.Audit) []*planted{
		"safety: live object": func(a map[ids.SiteID]site.Audit) []*planted {
			delete(a[2].Objects, 1)
			delete(a[1].Outrefs, ids.MakeRef(2, 1))
			return nil
		},
		"flagged garbage but globally reachable": func(a map[ids.SiteID]site.Audit) []*planted {
			s := a[2]
			s.GarbageFlagged = []ids.ObjID{1}
			a[2] = s
			return nil
		},
		"which does not exist": func(a map[ids.SiteID]site.Audit) []*planted {
			a[1].Outrefs[ids.MakeRef(2, 9)] = struct{}{}
			return nil
		},
		"not in the owner's source list": func(a map[ids.SiteID]site.Audit) []*planted {
			a[2].InrefSources[1] = nil
			return nil
		},
		"completeness": func(a map[ids.SiteID]site.Audit) []*planted {
			a[2].Objects[5] = nil
			return []*planted{{members: []ids.Ref{ids.MakeRef(2, 5)}}}
		},
	}
	for want, mutate := range doctor {
		audits, live := cleanAudits()
		rep := checkCluster(audits, live, mutate(audits))
		if rep.Count == 0 || !strings.Contains(strings.Join(rep.Violations, "\n"), want) {
			t.Errorf("doctored audit %q not rejected: %v", want, rep.Violations)
		}
	}
}

func checkOutcomeValues(t *testing.T, name string, values map[string]float64, defs []metricDef, nonZero bool) {
	t.Helper()
	if len(values) != len(defs) {
		t.Errorf("%s: %d values for %d definitions", name, len(values), len(defs))
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: metric %s missing or not finite (%v)", name, d.name, v)
		}
		if nonZero && v == 0 {
			t.Errorf("%s: end-to-end metric %s is zero", name, d.name)
		}
	}
}

// One-second smoke of every workload: it collects, the oracle is satisfied,
// nothing fails, and every end-to-end metric is reported and non-zero.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		r, err := runWorkload(w, 1, time.Second, false, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if r.oracle.Count != 0 {
			t.Errorf("%s: oracle: %v", w.name, r.oracle.Violations)
		}
		if len(r.t.sweeps) == 0 || r.failed() != 0 {
			t.Errorf("%s: %d structures swept, %d failed operations", w.name, len(r.t.sweeps), r.failed())
		}
		checkOutcomeValues(t, w.name, endToEnd(r), endToEndDefs, true)
	}
}

// The traced run reports every per-layer metric and writes a span file.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	w, _ := findWorkload("storm")
	path := t.TempDir() + "/spans.json"
	o, err := measurePerLayer(w, 1, 400*time.Millisecond, path)
	if err != nil {
		t.Fatal(err)
	}
	checkOutcomeValues(t, w.name, o.values, perLayerDefs, false)
	var file struct {
		Spans []span `json:"spans"`
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &file); err != nil || len(file.Spans) == 0 {
		t.Fatalf("span file: %v, %d spans", err, len(file.Spans))
	}
	shares := 0.0
	for name, v := range o.values {
		if strings.HasPrefix(name, "ledger.") {
			shares += v
		}
	}
	if math.Abs(shares-1) > 1e-9 {
		t.Errorf("ledger shares sum to %v, want 1 (unaccounted included)", shares)
	}
}

func TestStormCountsRepeatExactly(t *testing.T) {
	w, _ := findWorkload("storm")
	counts := func(seed int64) [3]int64 {
		r, err := runStorm(w, seed, 0, false, 1)
		if err != nil {
			t.Fatal(err)
		}
		return [3]int64{r.d.counters[metrics.MsgTotal], r.d.counters[metrics.BackTracesStarted], int64(r.rounds)}
	}
	a, b, c := counts(5), counts(5), counts(6)
	if a != b {
		t.Errorf("seed 5 gave %v then %v", a, b)
	}
	if a == c {
		t.Errorf("seeds 5 and 6 gave identical counts %v", a)
	}
}

// BENCHMARK.json at the repository root lists exactly the metrics and
// workloads this package reports.
func TestBenchmarkJSONInStep(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads listed, %d defined", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloads[i].name)
		}
	}
	var e2e, layers []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEndDefs) {
		t.Errorf("end_to_end differs from endToEndDefs:\n%v\n%v", e2e, endToEndDefs)
	}
	if !reflect.DeepEqual(layers, perLayerDefs) {
		t.Errorf("per_layer differs from perLayerDefs")
	}
}
