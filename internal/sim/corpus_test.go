package sim

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"backtrace/internal/metrics"
)

// TestReplayCorpus replays every schedule under testdata/schedules/ and
// enforces its Expect annotation (Schedule.Check): "safety" schedules are
// caught-regression witnesses that must trip the safety oracle; "clean" (or
// unannotated) schedules must pass both oracles and apply every event. Each schedule must replay, twice, to
// the digest it records — the corpus doubles as a determinism and
// behaviour regression suite.
func TestReplayCorpus(t *testing.T) {
	files, err := filepath.Glob("testdata/schedules/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no schedules in testdata/schedules/")
	}
	results := make(map[string]*Result)
	for _, path := range files {
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			sched, err := ReadScheduleFile(path)
			if err != nil {
				t.Fatal(err)
			}
			res := Replay(sched.Config, sched.Events)
			results[name] = res
			if err := sched.Check(res); err != nil {
				t.Fatal(err)
			}
			if !res.Failed() && res.Skipped != 0 {
				t.Fatalf("clean corpus schedule skipped %d events", res.Skipped)
			}
			if sched.Digest == "" {
				t.Fatalf("schedule records no digest; it replays to %s", res.Digest)
			}
			if res.Digest != sched.Digest {
				t.Fatalf("replay digest %s, schedule records %s", res.Digest, sched.Digest)
			}
			if again := Replay(sched.Config, sched.Events); again.Digest != res.Digest {
				t.Fatalf("replaying twice gave different digests:\n  %s\n  %s", res.Digest, again.Digest)
			}
		})
	}

	// The named fault schedules must actually race a fault against collector
	// activity — that is what they are in the corpus for.
	t.Run("crash-during-back-trace races an active trace", func(t *testing.T) {
		res, ok := results["crash-during-back-trace.json"]
		if !ok {
			t.Fatal("corpus is missing crash-during-back-trace.json")
		}
		found := false
		for _, fc := range res.FaultCtx {
			if fc.Kind == EvCrash && fc.ActiveFrames > 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("no crash hit an active back trace; contexts: %+v", res.FaultCtx)
		}
	})
	t.Run("batched-memoized-traces batches suspects", func(t *testing.T) {
		res, ok := results["batched-memoized-traces.json"]
		if !ok {
			t.Fatal("corpus is missing batched-memoized-traces.json")
		}
		if got := res.Metrics.Get(metrics.BackTraceBatchSize); got < 2 {
			t.Fatalf("peak batch size %d, want a multi-suspect trace (>= 2)", got)
		}
	})
	t.Run("partition-during-report cuts an in-flight report", func(t *testing.T) {
		res, ok := results["partition-during-report.json"]
		if !ok {
			t.Fatal("corpus is missing partition-during-report.json")
		}
		found := false
		for _, fc := range res.FaultCtx {
			if fc.Kind == EvPartition && fc.ReportsInFlight > 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("no partition cut an in-flight report; contexts: %+v", res.FaultCtx)
		}
	})
}

// TestScheduleRoundTrip: WriteFile/ReadScheduleFile preserve a schedule
// exactly, and the version check rejects foreign files.
func TestScheduleRoundTrip(t *testing.T) {
	res, err := Run(Config{Seed: 9, Steps: 50})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sched.json")
	s := Schedule{Config: res.Config, Expect: ExpectClean, Digest: res.Digest, Events: res.Events}
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadScheduleFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != ScheduleVersion || got.Expect != ExpectClean || got.Digest != res.Digest {
		t.Fatalf("round trip lost metadata: %+v", got)
	}
	if len(got.Events) != len(res.Events) {
		t.Fatalf("round trip lost events: %d -> %d", len(res.Events), len(got.Events))
	}
	replayed := Replay(got.Config, got.Events)
	if replayed.Digest != res.Digest {
		t.Fatal("round-tripped schedule replays to a different digest")
	}
}

// TestReadScheduleRejectsUnknownKeys: a schedule whose config carries a key
// this build does not know (here the retired "batch", "trace_workers",
// "shards", "codec", "skip_transfer_barrier", "memoize_live", "trace_batch"
// and "max_inflight_traces") is rejected, naming the key, rather than
// replayed as a different world than the file claims.
func TestReadScheduleRejectsUnknownKeys(t *testing.T) {
	for _, tc := range []struct{ key, entry string }{
		{`"batch"`, `"batch": true`},
		{`"trace_workers"`, `"trace_workers": 4`},
		{`"shards"`, `"shards": 4`},
		{`"codec"`, `"codec": "binary"`},
		{`"skip_transfer_barrier"`, `"skip_transfer_barrier": true`},
		{`"memoize_live"`, `"memoize_live": true`},
		{`"trace_batch"`, `"trace_batch": 8`},
		{`"max_inflight_traces"`, `"max_inflight_traces": 4`},
	} {
		path := filepath.Join(t.TempDir(), "sched.json")
		data := `{"version": 1, "config": {"seed": 1, ` + tc.entry + `}, "events": []}`
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadScheduleFile(path)
		if err == nil || !strings.Contains(err.Error(), tc.key) {
			t.Fatalf("ReadScheduleFile = %v, want an error naming %s", err, tc.key)
		}
	}
}
