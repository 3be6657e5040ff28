package sim

import (
	"testing"

	"backtrace/internal/ids"
)

// witnessEvents is a hand-built interleaving that needs the Section 6.1
// transfer barrier: site 1's agent reads its bait variable (acquiring a
// reference to the suspect S2:o6 deep in the live chain), transfers it to
// site 3 while unlinking the old path, and the back trace races the second
// transfer hop. With the barrier the trace returns Live; with
// the skip-transfer-barrier plant it flags the live chain Garbage.
func witnessEvents() []Event {
	r1 := ids.MakeRef(2, 6)   // the suspect: deep chain object owned by site 2
	bait := ids.MakeRef(1, 6) // site 1's bait container pointing at r1
	var evs []Event
	add := func(e Event) { evs = append(evs, e) }
	burst := func(a, b ids.SiteID, n int) { add(Event{Kind: EvDeliver, A: a, B: b, N: n}) }
	commit := func(s ids.SiteID) { add(Event{Kind: EvTraceCommit, Site: s}) }
	add(Event{Kind: EvRead, Site: 1, Ref: bait, N: 0})
	add(Event{Kind: EvSend, Site: 1, B: 3, Ref: r1})
	add(Event{Kind: EvVarDrop, Site: 1, Ref: r1})
	add(Event{Kind: EvUnlink, Site: 1, Obj: bait.Obj, Ref: r1})
	commit(3)
	burst(3, 1, 4)
	burst(3, 2, 4)
	commit(1)
	burst(1, 2, 4)
	commit(2)
	burst(2, 3, 4)
	burst(2, 1, 4)
	burst(1, 3, 4)
	burst(3, 2, 2)
	burst(2, 1, 2)
	add(Event{Kind: EvSend, Site: 3, B: 2, Ref: r1})
	add(Event{Kind: EvVarDrop, Site: 3, Ref: r1})
	burst(3, 2, 2)
	burst(2, 3, 4)
	commit(3)
	burst(3, 1, 4)
	burst(3, 2, 4)
	commit(1)
	for i := 0; i < 3; i++ {
		for _, p := range [][2]ids.SiteID{{1, 2}, {2, 1}, {1, 3}, {3, 1}, {2, 3}, {3, 2}} {
			burst(p[0], p[1], 4)
		}
	}
	return evs
}

// TestInjectedRegressionCaught is the model checker's acceptance test: a
// branch-local regression — deliberately skipping the Section 6.1.1 transfer
// barrier — must be caught as a safety violation, and the correct system must
// pass the identical schedule. This is the "any injected regression is caught"
// half of the subsystem's contract.
func TestInjectedRegressionCaught(t *testing.T) {
	events := witnessEvents()

	broken := Replay(Config{Faults: "skip-transfer-barrier"}, events)
	if len(broken.SafetyViolations) == 0 {
		t.Fatal("skipping the transfer barrier was not caught as a safety violation")
	}

	fixed := Replay(Config{}, events)
	if fixed.Failed() {
		t.Fatalf("the correct system failed the witness schedule: %v", fixed.Violations())
	}
}

// TestShrinkWitness: ddmin minimizes the witness to a replayable schedule of
// at most 30 events that still trips the safety oracle under the injected
// regression and still passes on the correct system.
func TestShrinkWitness(t *testing.T) {
	cfg := Config{Faults: "skip-transfer-barrier"}
	events := witnessEvents()
	shrunk := Shrink(cfg, events)

	if len(shrunk) > 30 {
		t.Fatalf("shrunk schedule has %d events, want <= 30", len(shrunk))
	}
	if len(shrunk) >= len(events) {
		t.Fatalf("shrinking did not reduce the schedule (%d -> %d events)", len(events), len(shrunk))
	}

	broken := Replay(cfg, shrunk)
	if len(broken.SafetyViolations) == 0 {
		t.Fatal("shrunk schedule no longer trips the safety oracle")
	}
	// Polarity must survive shrinking: the minimized schedule is a barrier
	// witness, not a generic failure.
	fixed := Replay(Config{}, shrunk)
	if fixed.Failed() {
		t.Fatalf("the correct system failed the shrunk schedule: %v", fixed.Violations())
	}
}

// TestShrinkCleanRunIsIdentity: shrinking a passing run returns it unchanged
// (nothing to minimize).
func TestShrinkCleanRunIsIdentity(t *testing.T) {
	res, err := Run(Config{Seed: 1, Steps: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("short run failed: %v", res.Violations())
	}
	shrunk := Shrink(res.Config, res.Events)
	if len(shrunk) != len(res.Events) {
		t.Fatalf("shrinking a clean run changed it: %d -> %d events", len(res.Events), len(shrunk))
	}
}

// TestTransferCheckPlantCaught is the acceptance test for the owner-sent
// transfer path: with the planted bug "skip the transfer check" (an owner
// applies removals and reconciliation drops from an update its receiver
// built before the transfer arrived), the corpus schedules that race an
// update against an owner-sent transfer trip the safety oracle, random
// exploration finds the bug on its own, and ddmin shrinks the first failure
// to a short schedule the correct system passes.
func TestTransferCheckPlantCaught(t *testing.T) {
	for _, name := range []string{
		"owner-transfer-stale-update.json",
		"owner-transfer-drop-and-resend.json",
		"owner-transfer-holder-crash.json",
	} {
		sched, err := ReadScheduleFile("testdata/schedules/" + name)
		if err != nil {
			t.Fatal(err)
		}
		planted := sched.Config
		planted.Faults = "skip-transfer-check"
		if res := Replay(planted, sched.Events); len(res.SafetyViolations) == 0 {
			t.Errorf("%s: skipping the transfer check was not caught", name)
		}
	}

	var first *Result
	if _, err := Explore(Config{Seed: 1, Faults: "skip-transfer-check"}, 40, func(_ int64, res *Result) {
		if first == nil && len(res.SafetyViolations) > 0 {
			first = res
		}
	}); err != nil {
		t.Fatal(err)
	}
	if first == nil {
		t.Fatal("exploration did not find the planted transfer-check bug in 40 seeds")
	}
	shrunk := Shrink(first.Config, first.Events)
	if len(shrunk) > 40 || len(shrunk) >= len(first.Events) {
		t.Fatalf("shrunk %d events to %d, want at most 40", len(first.Events), len(shrunk))
	}
	if res := Replay(first.Config, shrunk); len(res.SafetyViolations) == 0 {
		t.Fatal("shrunk schedule no longer trips the safety oracle")
	}
	fixed := first.Config
	fixed.Faults = ""
	if res := Replay(fixed, shrunk); res.Failed() {
		t.Fatalf("the correct system failed the shrunk schedule: %v", res.Violations())
	}
}
