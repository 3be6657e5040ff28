package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"backtrace/internal/ids"
)

// ScheduleVersion identifies the on-disk schedule format.
const ScheduleVersion = 1

// Event is one scheduler step: a message delivery, a collector phase, a
// mutator operation, or a fault. Events are fully concrete — they name the
// link, site, object, or reference they act on — so a recorded schedule
// replays without consulting the RNG that generated it.
type Event struct {
	// Kind discriminates the event; see the Ev* constants.
	Kind string `json:"k"`
	// Site is the acting site for site-scoped events (traces, timeouts,
	// mutator operations, crash/restart).
	Site ids.SiteID `json:"site,omitempty"`
	// A and B are the link endpoints for deliver/drop/dup (a message from A
	// to B) and the pair for partition/heal.
	A ids.SiteID `json:"a,omitempty"`
	B ids.SiteID `json:"b,omitempty"`
	// Obj is the local container object for link/unlink.
	Obj ids.ObjID `json:"obj,omitempty"`
	// Ref is the reference operand: the target of link/unlink/send/var_drop,
	// the container whose field is read for read, and the reference the
	// generator allocated for alloc (informational; replay re-allocates).
	Ref ids.Ref `json:"ref"`
	// N is the field index for read, and the burst size for deliver
	// (deliver up to N messages from the link head; 0 and 1 mean one).
	N int `json:"n,omitempty"`
}

// Event kinds. The zoo is deliberately small: everything the collector does
// is driven by message deliveries and the three collector phases; everything
// the application does is one of six legal mutator operations; everything
// that can go wrong is one of six faults.
const (
	EvDeliver     = "deliver"      // deliver head message(s) of link A→B (N = burst size)
	EvDrop        = "drop"         // drop head message of link A→B (loss)
	EvDup         = "dup"          // duplicate head message of link A→B
	EvTraceBegin  = "trace_begin"  // Site computes a local trace (Section 6.2 phase 1)
	EvTraceCommit = "trace_commit" // Site commits the computed trace (phase 2)
	EvTimeouts    = "timeouts"     // Site scans for overdue back-trace state (Section 4.6)
	EvAlloc       = "alloc"        // Site's agent allocates an object and holds it in a variable
	EvLink        = "link"         // Site's agent stores Ref into local object Obj
	EvUnlink      = "unlink"       // Site's agent removes Ref from local object Obj
	EvRead        = "read"         // Site's agent reads field N of local object Ref into a variable
	EvSend        = "send"         // Site's agent passes Ref to site B (Section 6.1 transfer)
	EvVarDrop     = "var_drop"     // Site's agent drops one variable holding Ref
	EvCrash       = "crash"        // Site crashes: volatile state and in-flight messages lost
	EvRestart     = "restart"      // Site restores from its crash-time checkpoint
	EvPartition   = "partition"    // cut the A↔B link
	EvHeal        = "heal"         // restore the A↔B link
)

// String renders the event canonically; the determinism digest hashes these
// lines, so the format is part of the replay contract.
func (e Event) String() string {
	switch e.Kind {
	case EvDeliver:
		if e.N > 1 {
			return fmt.Sprintf("%s %v->%v x%d", e.Kind, e.A, e.B, e.N)
		}
		return fmt.Sprintf("%s %v->%v", e.Kind, e.A, e.B)
	case EvDrop, EvDup, EvPartition, EvHeal:
		return fmt.Sprintf("%s %v->%v", e.Kind, e.A, e.B)
	case EvTraceBegin, EvTraceCommit, EvTimeouts, EvCrash, EvRestart:
		return fmt.Sprintf("%s %v", e.Kind, e.Site)
	case EvAlloc:
		return fmt.Sprintf("%s %v %v", e.Kind, e.Site, e.Ref)
	case EvLink, EvUnlink:
		return fmt.Sprintf("%s %v %v<-%v", e.Kind, e.Site, e.Obj, e.Ref)
	case EvRead:
		return fmt.Sprintf("%s %v %v[%d]", e.Kind, e.Site, e.Ref, e.N)
	case EvSend:
		return fmt.Sprintf("%s %v %v->%v", e.Kind, e.Site, e.Ref, e.B)
	case EvVarDrop:
		return fmt.Sprintf("%s %v %v", e.Kind, e.Site, e.Ref)
	default:
		return fmt.Sprintf("%s?", e.Kind)
	}
}

// Schedule is a replayable simulation run: the configuration that builds the
// world plus the exact event sequence to apply to it. Failure shrinking
// writes these files; TestReplayCorpus and `dgcsim -replay` read them.
type Schedule struct {
	Version int    `json:"version"`
	Config  Config `json:"config"`
	// Expect states the oracle outcome the schedule reproduces: "" (or
	// "clean") for a run both oracles must pass, "safety" for a run the
	// safety oracle must fail (a caught-regression witness), "completeness"
	// for a run only the completeness oracle fails. Check enforces it.
	Expect string `json:"expect,omitempty"`
	// Digest is the Result.Digest the events replay to; TestReplayCorpus
	// fails when a corpus file replays to any other.
	Digest string  `json:"digest,omitempty"`
	Events []Event `json:"events"`
}

// Expectation values for Schedule.Expect.
const (
	ExpectClean        = "clean"
	ExpectSafety       = "safety"
	ExpectCompleteness = "completeness"
)

// Check reports whether a replay of the schedule had the outcome its Expect
// annotation states.
func (s Schedule) Check(res *Result) error {
	switch s.Expect {
	case ExpectSafety:
		if len(res.SafetyViolations) == 0 {
			return fmt.Errorf("schedule expects a safety violation, run was clean")
		}
	case ExpectCompleteness:
		if len(res.SafetyViolations) > 0 || len(res.CompletenessViolations) == 0 {
			return fmt.Errorf("schedule expects a completeness violation only, got: %v", res.Violations())
		}
	case ExpectClean, "":
		if res.Failed() {
			return fmt.Errorf("schedule expects a clean run, got: %v", res.Violations())
		}
	default:
		return fmt.Errorf("unknown expect annotation %q", s.Expect)
	}
	return nil
}

// WriteFile serializes the schedule as indented JSON.
func (s Schedule) WriteFile(path string) error {
	s.Version = ScheduleVersion
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("sim: encode schedule: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadScheduleFile loads a schedule written by WriteFile. Unknown keys are
// an error, not dropped: a config key this build does not know would
// otherwise replay a different world than the file claims.
func ReadScheduleFile(path string) (Schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Schedule{}, fmt.Errorf("sim: read schedule: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Schedule
	if err := dec.Decode(&s); err != nil {
		return Schedule{}, fmt.Errorf("sim: decode schedule %s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Schedule{}, fmt.Errorf("sim: decode schedule %s: trailing data after the schedule", path)
	}
	if s.Version != ScheduleVersion {
		return Schedule{}, fmt.Errorf("sim: schedule %s has version %d, want %d", path, s.Version, ScheduleVersion)
	}
	return s, nil
}
