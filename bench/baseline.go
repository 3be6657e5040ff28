package main

import (
	"fmt"
	"math/rand"

	"backtrace/internal/baseline"
	"backtrace/internal/ids"
	"backtrace/internal/workload"
)

// Reference rows: the related-work collectors of internal/baseline run on the
// workload's own planted structure (beside a small rooted live part), so the
// paper's comparison sits on the same axes as msgs_per_reclaimed and
// collect_rounds_mean. They are counts from a model, not timings.

// baselineRounds bounds a baseline run; it matches the experiment harness.
const baselineRounds = 60

func planSpec(w *workloadDef, seed int64) workload.Spec {
	p := w.garbage(rand.New(rand.NewSource(seed*7919+1)), 0)
	sites := nodeSites
	if w.shape == shapeStepped {
		sites = steppedSites
	}
	spec := workload.Spec{Name: w.name, Sites: sites}
	for _, s := range p.sites {
		spec.Objects = append(spec.Objects, workload.ObjSpec{Site: s})
	}
	for _, e := range p.edges {
		spec.Edges = append(spec.Edges, [2]int{int(e[0]), int(e[1])})
	}
	root := len(spec.Objects)
	spec.Objects = append(spec.Objects, workload.ObjSpec{Site: 1, Root: true}, workload.ObjSpec{Site: ids.SiteID(sites)})
	spec.Edges = append(spec.Edges, [2]int{root, root + 1})
	return spec
}

func baselineRows(w *workloadDef, seed int64) (map[string]float64, error) {
	spec := planSpec(w, seed)
	rows := map[string]float64{}
	for _, mk := range []func(*baseline.World) baseline.Collector{
		func(bw *baseline.World) baseline.Collector { return baseline.NewHughes(bw) },
		func(bw *baseline.World) baseline.Collector { return baseline.NewGroupTrace(bw, suspicionT) },
		func(bw *baseline.World) baseline.Collector { return baseline.NewMigration(bw, suspicionT) },
	} {
		bw, _, err := baseline.FromSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("baseline rows: %w", err)
		}
		st := baseline.Run(bw, mk(bw), baselineRounds)
		rows["baseline."+st.Name+".msgs_per_reclaimed"] = ratio(float64(st.Messages), float64(st.Collected))
		rows["baseline."+st.Name+".rounds"] = float64(st.Rounds)
	}
	return rows, nil
}
