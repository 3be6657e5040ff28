package cluster_test

import (
	"math/rand"
	"testing"

	"backtrace/internal/cluster"
	"backtrace/internal/site"
	"backtrace/internal/workload"
)

// specReachable computes the ground-truth live set of a workload spec by
// plain graph reachability from its root objects — the oracle the real
// collector is checked against.
func specReachable(s workload.Spec) map[int]struct{} {
	adj := make(map[int][]int, len(s.Objects))
	for _, e := range s.Edges {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	live := make(map[int]struct{})
	var stack []int
	for i, o := range s.Objects {
		if o.Root {
			live[i] = struct{}{}
			stack = append(stack, i)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range adj[n] {
			if _, ok := live[m]; !ok {
				live[m] = struct{}{}
				stack = append(stack, m)
			}
		}
	}
	return live
}

// TestCollectorMatchesReachabilityOracle builds random workload specs,
// runs the full collector, and checks the surviving objects are EXACTLY
// the oracle's live set: nothing live collected (safety) and nothing dead
// retained (completeness). This is the strongest end-to-end check in the
// suite: the collector against an independent model.
func TestCollectorMatchesReachabilityOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for iter := 0; iter < 25; iter++ {
		sites := 2 + rng.Intn(4)
		spec := workload.RandomGraph(workload.RandomConfig{
			Sites:      sites,
			Objects:    20 + rng.Intn(60),
			AvgOut:     0.5 + rng.Float64()*2.5,
			RemoteProb: rng.Float64() * 0.5,
			Roots:      1 + rng.Intn(3),
			Seed:       rng.Int63(),
		})
		want := specReachable(spec)

		c := cluster.New(cluster.Options{
			NumSites: sites,
			Site: site.Config{
				SuspicionThreshold: 3,
				BackThreshold:      7,
				ThresholdBump:      4,
				AutoBackTrace:      true,
				Piggyback:          iter%2 == 0, // alternate the batching ablation
			},
		})
		refs, err := workload.Build(c, spec)
		if err != nil {
			c.Close()
			t.Fatalf("iter %d: %v", iter, err)
		}
		rounds, _ := c.CollectUntilStable(80)

		for i, r := range refs {
			_, wantLive := want[i]
			got := c.Site(r.Site).ContainsObject(r.Obj)
			if wantLive && !got {
				t.Fatalf("iter %d (rounds %d): SAFETY: object %d (%v) live in oracle but collected", iter, rounds, i, r)
			}
			if !wantLive && got {
				t.Fatalf("iter %d (rounds %d): COMPLETENESS: object %d (%v) dead in oracle but retained", iter, rounds, i, r)
			}
		}
		if got := c.TotalObjects(); got != len(want) {
			t.Fatalf("iter %d: %d objects remain, oracle says %d", iter, got, len(want))
		}
		if got := c.InvariantViolations(); len(got) != 0 {
			t.Fatalf("iter %d: invariants: %v", iter, got)
		}
		c.Close()
	}
}

// TestCollectorOracleAfterMutation repeats the oracle check after a round
// of random reference deletions (which can orphan whole subgraphs and
// cycles at once).
func TestCollectorOracleAfterMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(7777))
	for iter := 0; iter < 15; iter++ {
		sites := 2 + rng.Intn(3)
		spec := workload.RandomGraph(workload.RandomConfig{
			Sites:      sites,
			Objects:    30 + rng.Intn(40),
			AvgOut:     2,
			RemoteProb: 0.3,
			Roots:      2,
			Seed:       rng.Int63(),
		})
		c := cluster.New(cluster.Options{
			NumSites: sites,
			Site: site.Config{
				SuspicionThreshold: 3,
				BackThreshold:      7,
				ThresholdBump:      4,
				AutoBackTrace:      true,
			},
		})
		refs, err := workload.Build(c, spec)
		if err != nil {
			c.Close()
			t.Fatalf("iter %d: %v", iter, err)
		}

		// Delete ~20% of the edges, mirroring each deletion in the spec.
		kept := spec.Edges[:0]
		for _, e := range spec.Edges {
			if rng.Float64() < 0.2 {
				if err := c.Site(refs[e[0]].Site).RemoveReference(refs[e[0]].Obj, refs[e[1]]); err != nil {
					c.Close()
					t.Fatalf("iter %d: remove: %v", iter, err)
				}
				continue
			}
			kept = append(kept, e)
		}
		spec.Edges = kept
		want := specReachable(spec)

		c.CollectUntilStable(80)
		for i, r := range refs {
			_, wantLive := want[i]
			got := c.Site(r.Site).ContainsObject(r.Obj)
			if wantLive != got {
				t.Fatalf("iter %d: object %d (%v): oracle live=%v, collector live=%v",
					iter, i, r, wantLive, got)
			}
		}
		c.Close()
	}
}
