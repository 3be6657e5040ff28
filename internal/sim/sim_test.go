package sim

import (
	"testing"

	"backtrace/internal/obs"
)

// TestDeterminism is the replay contract: the same seed produces the
// identical run — event for event, log line for log line, digest for digest
// — and replaying the recorded schedule (no RNG) reproduces it again.
func TestDeterminism(t *testing.T) {
	cfg := Config{Seed: 7}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("same seed, different digests:\n  %s\n  %s", a.Digest, b.Digest)
	}
	if len(a.Log) != len(b.Log) {
		t.Fatalf("same seed, different log lengths: %d vs %d", len(a.Log), len(b.Log))
	}
	for i := range a.Log {
		if a.Log[i] != b.Log[i] {
			t.Fatalf("log line %d differs:\n  %s\n  %s", i, a.Log[i], b.Log[i])
		}
	}

	r := Replay(cfg, a.Events)
	if r.Skipped != 0 {
		t.Fatalf("replay of a generated run skipped %d events", r.Skipped)
	}
	if r.Digest != a.Digest {
		t.Fatalf("replay digest differs from the generating run:\n  %s\n  %s", a.Digest, r.Digest)
	}
}

// TestDeterminismAcrossConfigs guards the digest against accidental
// dependence on ambient state: different seeds must (overwhelmingly) give
// different interleavings, and a config change must change the run.
func TestDeterminismAcrossConfigs(t *testing.T) {
	base, err := Run(Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	other, err := Run(Config{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if base.Digest == other.Digest {
		t.Fatal("different seeds produced the identical digest")
	}
	bigger, err := Run(Config{Seed: 11, Sites: 4})
	if err != nil {
		t.Fatal(err)
	}
	if base.Digest == bigger.Digest {
		t.Fatal("different site counts produced the identical digest")
	}
}

// TestSmokeSeeds is the regular-CI model-checking smoke: twenty seeds of
// the default world must pass both oracles.
func TestSmokeSeeds(t *testing.T) {
	rep, err := Explore(Config{}, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures > 0 {
		ff := rep.FirstFailure
		t.Fatalf("%d/%d seeds failed (first: seed %d, %v)",
			rep.Failures, rep.Seeds, rep.FailedSeeds[0], ff.Violations())
	}
	if rep.DistinctDigests < rep.Seeds {
		t.Fatalf("only %d distinct interleavings across %d seeds", rep.DistinctDigests, rep.Seeds)
	}
}

// TestRunExercisesTheCollector asserts a default run actually drives the
// machinery the oracles watch: messages deliver, back traces run and
// complete, garbage is collected, spans are emitted.
func TestRunExercisesTheCollector(t *testing.T) {
	res, err := Run(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("default run failed: %v", res.Violations())
	}
	if res.Delivered == 0 {
		t.Fatal("run delivered no messages")
	}
	if res.Spans == 0 {
		t.Fatal("run emitted no spans")
	}
	w := newWorld(res.Config)
	defer w.close()
	r := newRunner(w)
	for _, src := range res.Events {
		ev := src
		if r.apply(&ev) {
			r.res.Events = append(r.res.Events, ev)
			r.postEvent(ev)
		}
	}
	r.finish()
	var started, completed, collected int
	for _, e := range w.spans.events {
		switch e.Kind {
		case obs.TraceStarted:
			started++
		case obs.TraceCompleted:
			completed++
		case obs.ObjectsCollected:
			collected += e.N
		}
	}
	if started == 0 || completed == 0 {
		t.Fatalf("run exercised no back traces (started=%d completed=%d)", started, completed)
	}
	if collected == 0 {
		t.Fatal("run collected no objects (planted cycles should die)")
	}
}

// TestBareCommitIsAFullRound: a trace_commit without a prior trace_begin
// computes and commits in one event, equivalent to an adjacent begin+commit
// pair.
func TestBareCommitIsAFullRound(t *testing.T) {
	bare := Replay(Config{}, []Event{{Kind: EvTraceCommit, Site: 1}})
	paired := Replay(Config{}, []Event{{Kind: EvTraceBegin, Site: 1}, {Kind: EvTraceCommit, Site: 1}})
	if bare.Skipped != 0 || paired.Skipped != 0 {
		t.Fatalf("skipped events: bare=%d paired=%d", bare.Skipped, paired.Skipped)
	}
	if bare.Failed() || paired.Failed() {
		t.Fatalf("violations: bare=%v paired=%v", bare.Violations(), paired.Violations())
	}
}

// TestDeliverBurst: a deliver with N>1 moves up to N messages in one
// scheduler event and renders distinctly in the log (the digest contract).
func TestDeliverBurst(t *testing.T) {
	res := Replay(Config{}, []Event{
		{Kind: EvTraceCommit, Site: 1}, // each commit queues one Update on 1->2
		{Kind: EvTraceCommit, Site: 1},
		{Kind: EvDeliver, A: 1, B: 2, N: 8},
	})
	if res.Skipped != 0 {
		t.Fatalf("burst deliver skipped (%d)", res.Skipped)
	}
	if res.Delivered < 2 {
		t.Fatalf("burst delivered %d messages, want the whole backlog", res.Delivered)
	}
	if n := len(res.Events); n != 3 {
		t.Fatalf("burst must be one scheduler event, schedule has %d events", n)
	}
	ev := Event{Kind: EvDeliver, A: 1, B: 2, N: 8}
	if got, want := ev.String(), "deliver S1->S2 x8"; got != want {
		t.Fatalf("burst String() = %q, want %q", got, want)
	}
}
