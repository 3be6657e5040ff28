package main

import (
	"fmt"
	"os"

	"backtrace/internal/sim"
)

// exitError makes run()'s caller exit with the given status without printing
// anything further (the message was already reported).
type exitError struct{ code int }

func (e exitError) Error() string { return fmt.Sprintf("exit %d", e.code) }

// runExplore is `dgcsim -explore`: sweep N seeds of the deterministic
// simulation, and when any seed trips the safety or completeness oracle,
// shrink the first failure to a minimal schedule and write it out for replay.
func runExplore(cfg sim.Config, seeds int, scheduleOut string, verbose bool) error {
	used := cfg.WithDefaults()
	fmt.Printf("exploring %d seeds (sites=%d steps=%d threshold=%d/%d faults=%q)\n",
		seeds, used.Sites, used.Steps, used.Threshold, used.BackThreshold, used.Faults)

	progress := seeds / 10
	if progress < 1 {
		progress = 1
	}
	report, err := sim.Explore(cfg, seeds, func(seed int64, res *sim.Result) {
		if res.Failed() {
			fmt.Printf("seed %d FAILED: %v\n", seed, res.Violations())
			return
		}
		if verbose || (seed-cfg.Seed+1)%int64(progress) == 0 {
			fmt.Printf("seed %d ok (%d events, %d delivered)\n", seed, len(res.Events), res.Delivered)
		}
	})
	if err != nil {
		return err
	}
	fmt.Println(report)

	if report.Failures == 0 {
		fmt.Println("no safety or completeness violations")
		return nil
	}

	// Minimize the first failure and write a replayable witness.
	fail := report.FirstFailure
	fmt.Printf("\nshrinking first failure (seed %d, %d events)...\n", fail.Config.Seed, len(fail.Events))
	shrunk := sim.Shrink(fail.Config, fail.Events)
	fmt.Printf("shrunk to %d events\n", len(shrunk))
	if scheduleOut != "" {
		res := sim.Replay(fail.Config, shrunk)
		sched := sim.Schedule{Config: fail.Config, Expect: sim.ExpectCompleteness,
			Events: shrunk, Digest: res.Digest}
		if len(res.SafetyViolations) > 0 {
			sched.Expect = sim.ExpectSafety
		}
		if err := sched.WriteFile(scheduleOut); err != nil {
			return err
		}
		fmt.Printf("minimal schedule written to %s (replay with: dgcsim -replay %s)\n",
			scheduleOut, scheduleOut)
	}
	return exitError{1}
}

// runReplay is `dgcsim -replay file`: execute a recorded schedule and report
// the oracle outcome. The exit status reflects whether the outcome matched
// the schedule's expect annotation (Schedule.Check); without one, any
// violation is a nonzero exit.
func runReplay(path string, verbose bool) error {
	sched, err := sim.ReadScheduleFile(path)
	if err != nil {
		return err
	}
	res := sim.Replay(sched.Config, sched.Events)
	if verbose {
		for _, line := range res.Log {
			fmt.Println(line)
		}
	}
	fmt.Printf("replayed %d events (%d skipped), digest %s\n",
		len(res.Events), res.Skipped, res.Digest[:16])
	for _, v := range res.Violations() {
		fmt.Println("violation:", v)
	}

	if err := sched.Check(res); err != nil {
		fmt.Println("FAIL:", err)
		return exitError{1}
	}
	if res.Failed() {
		fmt.Printf("ok: %s violation reproduced as expected\n", sched.Expect)
	} else {
		fmt.Println("ok: clean run")
	}
	return nil
}

// die prints the error unless it is a bare exit request, then exits.
func die(err error) {
	if ee, ok := err.(exitError); ok {
		os.Exit(ee.code)
	}
	fmt.Fprintln(os.Stderr, "dgcsim:", err)
	os.Exit(1)
}
