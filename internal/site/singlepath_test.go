package site

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/tracer"
	"backtrace/internal/transport"
)

// scriptRun is what one run of the mutation script observed: every commit's
// report (cost counters aside) and every site's audit after each round.
type scriptRun struct {
	reports []TraceReport
	audits  []Audit
	// traces and fallbacks total the sites' localtrace.runs and
	// localtrace.incremental.fallbacks counters.
	traces, fallbacks int64
}

// runMutationScript drives three sites through a seeded script of the legal
// mutator flows — allocation, local and cross-site references, reference
// removal, dropped roots — with a round of local traces (back traces on)
// after every burst. The script's choices depend only on the seed and on
// state every configuration shares, so two runs diverge only if a committed
// trace differed.
func runMutationScript(t *testing.T, seed int64, incremental bool) scriptRun {
	t.Helper()
	net := transport.NewNet(transport.Options{Stepped: true})
	defer net.Close()
	sites := make([]*Site, 3)
	for i := range sites {
		sites[i] = New(Config{
			ID: ids.SiteID(i + 1), Network: net,
			SuspicionThreshold: 2, BackThreshold: 4, AutoBackTrace: true,
			Incremental: incremental,
		})
	}
	rng := rand.New(rand.NewSource(seed))
	// held[i] lists the references site i holds in application roots.
	held := make([][]ids.Ref, len(sites))
	for i, s := range sites {
		held[i] = append(held[i], s.NewRootObject())
	}
	pickLocal := func(i int) (ids.Ref, bool) {
		var local []ids.Ref
		for _, r := range held[i] {
			if r.Site == sites[i].ID() && sites[i].ContainsObject(r.Obj) {
				local = append(local, r)
			}
		}
		if len(local) == 0 {
			return ids.Ref{}, false
		}
		return local[rng.Intn(len(local))], true
	}

	// plantRing builds a garbage cycle with one member per site through the
	// reference-passing protocol, then drops every hold on it: only back
	// traces can reclaim it.
	plantRing := func() {
		members := make([]ids.Ref, len(sites))
		for i, s := range sites {
			members[i] = s.NewHeldObject()
		}
		for i, s := range sites {
			next := (i + 1) % len(sites)
			if err := sites[next].SendRef(s.ID(), members[next]); err != nil {
				t.Fatal(err)
			}
			net.DeliverAll()
			if err := s.AddReference(members[i].Obj, members[next]); err != nil {
				t.Fatal(err)
			}
			s.DropAppRoot(members[next])
		}
		for i, s := range sites {
			s.DropAppRoot(members[i])
		}
	}

	var run scriptRun
	for round := 0; round < 30; round++ {
		if round%10 == 0 {
			plantRing()
		}
		// Every third round only adds (allocations, references, transfers);
		// the others also remove references and drop roots, which makes
		// garbage — cross-site cycles included.
		ops := 10
		if round%3 == 2 {
			ops = 6
		}
		for step := 0; step < 20; step++ {
			i := rng.Intn(len(sites))
			s := sites[i]
			container, ok := pickLocal(i)
			switch op := rng.Intn(ops); {
			case op < 2:
				held[i] = append(held[i], s.NewHeldObject())
			case op < 4:
				to := (i + 1 + rng.Intn(len(sites)-1)) % len(sites)
				r := held[i][rng.Intn(len(held[i]))]
				if s.SendRef(sites[to].ID(), r) == nil {
					net.DeliverAll()
					held[to] = append(held[to], r)
				}
			case op < 6:
				if ok {
					_ = s.AddReference(container.Obj, held[i][rng.Intn(len(held[i]))])
				}
			case op < 7:
				if !ok {
					break
				}
				if fields, err := s.Fields(container.Obj); err == nil && len(fields) > 0 {
					_ = s.RemoveReference(container.Obj, fields[rng.Intn(len(fields))])
				}
			case len(held[i]) > 1:
				k := 1 + rng.Intn(len(held[i])-1)
				s.DropAppRoot(held[i][k])
				held[i] = append(held[i][:k], held[i][k+1:]...)
			}
		}
		net.DeliverAll()
		for _, s := range sites {
			rep := s.RunLocalTrace()
			if rep.Stats.Incremental || rep.Stats.FallbackReason != tracer.FullTrace {
				t.Fatalf("trace reported Incremental=%v FallbackReason=%q, want a full trace",
					rep.Stats.Incremental, rep.Stats.FallbackReason)
			}
			// Cost counters legitimately differ between runs; everything a
			// commit did must not.
			rep.Stats = tracer.Stats{}
			run.reports = append(run.reports, rep)
			net.DeliverAll()
		}
		for _, s := range sites {
			run.audits = append(run.audits, s.AuditSnapshot())
		}
	}
	for _, s := range sites {
		snap := s.Metrics()
		run.traces += snap.Get(metrics.LocalTraces)
		run.fallbacks += snap.Get(metrics.IncrementalFallbacks)
	}
	return run
}

// TestSinglePathCommitsSameTraces is the site-level equivalence of the one
// local-trace path: Config.Incremental is accepted and ignored, so the same
// mutation script must commit identical trace reports and leave identical
// audits with it on and off. Every trace is a full mark, so each run counts
// one incremental fallback per local trace.
func TestSinglePathCommitsSameTraces(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		want := runMutationScript(t, seed, false)
		collected, backTraces := 0, 0
		for _, rep := range want.reports {
			collected += rep.Collected
			backTraces += rep.BackTracesStarted
		}
		if collected == 0 || backTraces == 0 {
			t.Fatalf("seed %d: script swept %d objects and started %d back traces; want both",
				seed, collected, backTraces)
		}
		for _, incremental := range []bool{false, true} {
			got := runMutationScript(t, seed, incremental)
			ctx := fmt.Sprintf("seed %d incremental=%v", seed, incremental)
			if !reflect.DeepEqual(got.reports, want.reports) {
				t.Fatalf("%s: trace reports diverge\n got %+v\nwant %+v", ctx, got.reports, want.reports)
			}
			if !reflect.DeepEqual(got.audits, want.audits) {
				t.Fatalf("%s: audits diverge", ctx)
			}
			if got.traces == 0 || got.fallbacks != got.traces {
				t.Fatalf("%s: %d fallbacks over %d local traces, want one per trace", ctx, got.fallbacks, got.traces)
			}
		}
	}
}
