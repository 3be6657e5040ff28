package sim

import (
	"testing"

	"backtrace/internal/metrics"
)

// invalidationCorpusFile is the checked-in witness schedule for mutations
// racing back traces: a clean run in which an unlink or a dropped variable
// — a change that can raise distances or revoke reachability — lands while
// a back trace holds active frames.
const invalidationCorpusFile = "testdata/schedules/invalidation-during-back-trace.json"

// driveWitness replays a schedule step by step, reporting whether any
// unlink or variable drop applied while a back trace held active frames
// somewhere. The returned Result carries the final counters.
func driveWitness(cfg Config, events []Event) (overlap bool, res *Result) {
	cfg = cfg.WithDefaults()
	w := newWorld(cfg)
	defer w.close()
	r := newRunner(w)
	for _, src := range events {
		ev := src
		framesBefore := 0
		if ev.Kind == EvUnlink || ev.Kind == EvVarDrop {
			for _, s := range w.liveSites() {
				framesBefore += w.cluster.Site(s).ActiveFrames()
			}
		}
		if !r.apply(&ev) {
			r.res.Skipped++
			continue
		}
		if (ev.Kind == EvUnlink || ev.Kind == EvVarDrop) && framesBefore > 0 {
			overlap = true
		}
		r.res.Events = append(r.res.Events, ev)
		if viol := r.postEvent(ev); len(viol) > 0 {
			r.res.SafetyViolations = viol
			r.res.ViolationStep = len(r.res.Events) - 1
			break
		}
	}
	r.finish()
	return overlap, r.res
}

// TestIncrementalExploreClean sweeps seeds across the C14 fault mixes: both
// oracles must stay silent on every seed. It also pins what the
// localtrace.incremental.* counters report now that every local trace is a
// full mark: no remark ever runs, and every trace counts as a fallback.
func TestIncrementalExploreClean(t *testing.T) {
	mixes := []struct {
		name   string
		faults string
		seeds  int
	}{
		{"default", "", 15},
		{"crash-restart", "crash@150:2,restart@300:2", 5},
		{"partition-heal", "partition@150:1-3,heal@300:1-3", 5},
		{"drop", "drop@100:8", 5},
		{"mixed", "crash@120:2,partition@160:1-3,restart@260:2,heal@320:1-3,drop@200:4", 5},
	}
	var traces, remarks, fallbacks int64
	for _, mix := range mixes {
		mix := mix
		t.Run(mix.name, func(t *testing.T) {
			cfg := Config{Seed: 1, Faults: mix.faults}
			report, err := Explore(cfg, mix.seeds, func(seed int64, res *Result) {
				traces += res.Metrics.Get(metrics.LocalTraces)
				remarks += res.Metrics.Get(metrics.IncrementalRemarks)
				fallbacks += res.Metrics.Get(metrics.IncrementalFallbacks)
			})
			if err != nil {
				t.Fatal(err)
			}
			if report.Failures != 0 {
				t.Fatalf("%d/%d seeds failed (first: %v)", report.Failures, report.Seeds,
					report.FirstFailure.Violations())
			}
			if report.DistinctDigests != report.Seeds {
				t.Fatalf("only %d distinct interleavings over %d seeds", report.DistinctDigests, report.Seeds)
			}
		})
	}
	if traces == 0 {
		t.Fatal("the sweep ran no local traces")
	}
	if remarks != 0 || fallbacks != traces {
		t.Fatalf("%d traces counted %d remarks and %d fallbacks, want 0 and every trace",
			traces, remarks, fallbacks)
	}
}

// TestIncrementalCorpusWitness re-drives the checked-in corpus schedule and
// asserts it still exercises what it is in the corpus for: an unlink or a
// variable drop applying while a back trace holds active frames, with both
// oracles silent.
func TestIncrementalCorpusWitness(t *testing.T) {
	sched, err := ReadScheduleFile(invalidationCorpusFile)
	if err != nil {
		t.Fatal(err)
	}
	overlap, res := driveWitness(sched.Config, sched.Events)
	if res.Failed() {
		t.Fatalf("corpus schedule failed: %v", res.Violations())
	}
	if res.Skipped != 0 {
		t.Fatalf("corpus schedule skipped %d events", res.Skipped)
	}
	if !overlap {
		t.Fatal("no unlink or variable drop applied while a back trace was active")
	}
}
