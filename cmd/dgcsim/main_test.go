package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs dgcsim with args and returns what it printed and its error.
func capture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	runErr := dgcsim(args)
	os.Stdout = stdout
	w.Close()
	return <-out, runErr
}

// TestExploreForwardsThresholds checks that -threshold and -back-threshold
// reach the simulated world when they are set.
func TestExploreForwardsThresholds(t *testing.T) {
	out, err := capture(t, "-explore", "-seeds", "1", "-threshold", "3", "-back-threshold", "6")
	if err != nil {
		t.Fatalf("explore: %v\n%s", err, out)
	}
	if !strings.Contains(out, "threshold=3/6") {
		t.Errorf("explore ignored the threshold flags:\n%s", out)
	}
}

// TestExplorePrintsConfigInUse checks that the header names the config the
// run uses, defaults filled in, not the zero values it started from.
func TestExplorePrintsConfigInUse(t *testing.T) {
	out, err := capture(t, "-explore", "-seeds", "1")
	if err != nil {
		t.Fatalf("explore: %v\n%s", err, out)
	}
	if !strings.Contains(out, "sites=3 steps=600 threshold=2/4") {
		t.Errorf("explore header does not show the defaulted config:\n%s", out)
	}
}

// TestReplayRejectsWorldFlags checks that a replay refuses a flag that
// would shape the world, naming it, and still replays without one.
func TestReplayRejectsWorldFlags(t *testing.T) {
	const schedule = "../../internal/sim/testdata/schedules/invalidation-during-back-trace.json"
	for _, flagArgs := range [][]string{
		{"-threshold", "3"},
		{"-back-threshold", "6"},
		{"-sim-sites", "4"},
		{"-sim-steps", "100"},
	} {
		args := append([]string{"-replay", schedule}, flagArgs...)
		_, err := capture(t, args...)
		if err == nil || !strings.Contains(err.Error(), flagArgs[0]) {
			t.Errorf("dgcsim %v = %v, want an error naming %s", args, err, flagArgs[0])
		}
	}
	if out, err := capture(t, "-replay", schedule); err != nil || !strings.Contains(out, "ok: clean run") {
		t.Errorf("plain replay = %v:\n%s", err, out)
	}
}

// TestExploreRejectsTransportFlags checks that the stepped worlds refuse
// the session layer, naming the flag, rather than ignoring it.
func TestExploreRejectsTransportFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-explore", "-seeds", "1", "-reliable"},
		{"-replay", "../../internal/sim/testdata/schedules/invalidation-during-back-trace.json", "-reliable"},
	} {
		if _, err := capture(t, args...); err == nil || !strings.Contains(err.Error(), "-reliable") {
			t.Errorf("dgcsim %v = %v, want an error naming -reliable", args, err)
		}
	}
}

// TestExploreWitnessReplays checks that the shrunk failure -explore writes
// replays to its own outcome: the planted skip-transfer-check bug fails
// seed 5 (exit 1), and replaying the written schedule exits 0.
func TestExploreWitnessReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "failure.json")
	out, err := capture(t, "-explore", "-seed", "5", "-seeds", "1",
		"-faults", "skip-transfer-check", "-schedule-out", path)
	if ee, ok := err.(exitError); !ok || ee.code != 1 {
		t.Fatalf("explore = %v, want exit 1 on the planted bug:\n%s", err, out)
	}
	out, err = capture(t, "-replay", path)
	if err != nil || !strings.Contains(out, "reproduced as expected") {
		t.Errorf("replay of the written witness = %v:\n%s", err, out)
	}
}
