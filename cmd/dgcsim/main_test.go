package main

import (
	"io"
	"os"
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
		{"-trace-batch", "4"},
		{"-memoize-live"},
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

// TestExploreRejectsTransportFlags checks that the stepped world refuses
// any batching value, a negative one included, rather than ignoring it.
func TestExploreRejectsTransportFlags(t *testing.T) {
	for _, flagArgs := range [][]string{
		{"-batch", "4"},
		{"-batch", "-3"},
		{"-flush-interval", "-1ms"},
	} {
		args := append([]string{"-explore", "-seeds", "1"}, flagArgs...)
		if _, err := capture(t, args...); err == nil {
			t.Errorf("dgcsim %v accepted", args)
		}
	}
}
