package core

import (
	"math/rand"
	"testing"

	"backtrace/internal/ids"
	"backtrace/internal/msg"
)

// TestEngineStressRandomTopologies throws many concurrent back traces at
// random ioref topologies with scrambled delivery, dropped messages, and
// timeouts, and checks the engine's structural guarantees: every trace
// terminates, no frames, clean-rule lists, trace records or visit marks
// leak, and flagging only ever happens via a Garbage report.
func TestEngineStressRandomTopologies(t *testing.T) {
	const seeds = 30
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nSites := 2 + rng.Intn(5)
		sites := make([]ids.SiteID, nSites)
		for i := range sites {
			sites[i] = ids.SiteID(i + 1)
		}
		r := newRig(t, sites...)

		// Random ioref topology: each site gets a few objects; each
		// object may have an inref (random sources, random distance) and
		// each site random outrefs with random insets over its own
		// objects.
		perSite := 1 + rng.Intn(4)
		for _, s := range sites {
			for obj := ids.ObjID(1); obj <= ids.ObjID(perSite); obj++ {
				nSrc := 1 + rng.Intn(3)
				for k := 0; k < nSrc; k++ {
					src := sites[rng.Intn(nSites)]
					if src == s {
						continue
					}
					r.tables[s].AddSource(obj, src)
					r.tables[s].SetSourceDistance(obj, src, 5+rng.Intn(50))
				}
			}
			nOut := rng.Intn(2 * perSite)
			for k := 0; k < nOut; k++ {
				target := ids.MakeRef(sites[rng.Intn(nSites)], ids.ObjID(1+rng.Intn(perSite)))
				if target.Site == s {
					continue
				}
				inset := make([]ids.ObjID, 0, perSite)
				for obj := ids.ObjID(1); obj <= ids.ObjID(perSite); obj++ {
					if rng.Intn(2) == 0 {
						inset = append(inset, obj)
					}
				}
				r.addOutref(s, target, 5+rng.Intn(50), inset...)
			}
		}

		// Fire several traces from random suspected outrefs.
		started := 0
		for k := 0; k < 6; k++ {
			s := sites[rng.Intn(nSites)]
			for _, o := range r.tables[s].Outrefs() {
				if !o.IsClean(rigThreshold) {
					if _, ok := r.engines[s].StartTrace(o.Target); ok {
						started++
					}
					break
				}
			}
		}

		// Scrambled delivery with occasional drops.
		for len(r.queue) > 0 {
			i := rng.Intn(len(r.queue))
			env := r.queue[i]
			r.queue = append(r.queue[:i], r.queue[i+1:]...)
			if rng.Intn(10) == 0 {
				continue // drop
			}
			r.deliver(env)
		}
		// Expire everything still pending.
		r.now = r.now.Add(time1Hour)
		for _, s := range sites {
			r.engines[s].CheckTimeouts()
		}
		for len(r.queue) > 0 {
			env := r.queue[0]
			r.queue = r.queue[1:]
			r.deliver(env)
		}
		r.now = r.now.Add(time1Hour)
		for _, s := range sites {
			r.engines[s].CheckTimeouts()
		}

		// Structural guarantees.
		if len(r.done) > started {
			t.Fatalf("seed %d: %d completions for %d starts", seed, len(r.done), started)
		}
		for _, s := range sites {
			if got := r.engines[s].ActiveFrames(); got != 0 {
				t.Fatalf("seed %d: site %v leaked %d frames", seed, s, got)
			}
			if got := r.engines[s].PendingMarks(); got != 0 {
				t.Fatalf("seed %d: site %v leaked %d mark sets", seed, s, got)
			}
			e := r.engines[s]
			if len(e.frames) != 0 || len(e.byInref) != 0 || len(e.byOutref) != 0 || len(e.traces) != 0 {
				t.Fatalf("seed %d: site %v left %d frames, %d+%d clean-rule lists, %d trace records",
					seed, s, len(e.frames), len(e.byInref), len(e.byOutref), len(e.traces))
			}
		}
		// Visited sets on iorefs must be empty too.
		for _, s := range sites {
			for _, in := range r.tables[s].Inrefs() {
				if len(in.Visited) != 0 {
					t.Fatalf("seed %d: inref %v retains visit marks %v", seed, in.Obj, in.Visited)
				}
			}
			for _, o := range r.tables[s].Outrefs() {
				if len(o.Visited) != 0 {
					t.Fatalf("seed %d: outref %v retains visit marks", seed, o.Target)
				}
			}
		}
		// Flags only with a Garbage completion somewhere (local flags at
		// non-initiators come from Report messages, which imply one).
		flagged := 0
		for _, s := range sites {
			for _, in := range r.tables[s].Inrefs() {
				if in.Garbage {
					flagged++
				}
			}
		}
		garbageOutcomes := 0
		for _, d := range r.done {
			if d.outcome == msg.VerdictGarbage {
				garbageOutcomes++
			}
		}
		if flagged > 0 && garbageOutcomes == 0 {
			t.Fatalf("seed %d: %d inrefs flagged with no Garbage outcome", seed, flagged)
		}
	}
}

// time1Hour avoids importing time twice in this file's scope.
const time1Hour = 3600 * 1e9
