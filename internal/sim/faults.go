package sim

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"backtrace/internal/ids"
	"backtrace/internal/site"
)

// The fault-schedule DSL names faults to inject at fixed scheduler steps.
// A plan is a comma-separated list of clauses:
//
//	crash@120:2        crash site 2 at step 120
//	restart@300:2      restore site 2 from its crash checkpoint at step 300
//	partition@200:1-3  cut the link between sites 1 and 3 at step 200
//	heal@400:1-3       restore that link at step 400
//	drop@80:5          drop 5 pending link-head messages starting at step 80
//	dup@90:3           duplicate 3 pending link-head messages starting at step 90
//	skip-transfer-barrier  plant: sites skip the Section 6.1.1 transfer barrier
//	skip-transfer-check    plant: owners forget unreceipted owner-sent transfers
//
// A drop or dup due while nothing can be its victim waits for the first
// step that has one. A plant is a deliberate bug the model checker must
// catch: site.FaultSkipTransferBarrier, or site.FaultSkipTransferCheck (an
// owner applies removals and reconciliation drops from an update its
// receiver built before an owner-sent transfer arrived). It takes no step,
// and the clause stays in the config block, so a replay builds the same
// broken world.
//
// The DSL exists only for the generator: each clause is turned into concrete
// schedule events as the run reaches its step, and those events — not the
// DSL — are what a schedule file records, so replays need no parsing.

// faultOp is one parsed clause.
type faultOp struct {
	step int
	kind string     // EvCrash, EvRestart, EvPartition, EvHeal, EvDrop, EvDup
	a, b ids.SiteID // site (a) or pair (a,b)
	n    int        // burst size for drop/dup
}

// plants maps each plant clause to the site fault it sets.
var plants = map[string]site.Faults{
	"skip-transfer-barrier": site.FaultSkipTransferBarrier,
	"skip-transfer-check":   site.FaultSkipTransferCheck,
}

// plantedIn returns the site faults the DSL spec's plant clauses set.
func plantedIn(spec string) site.Faults {
	var f site.Faults
	for _, c := range strings.Split(spec, ",") {
		f |= plants[strings.TrimSpace(c)]
	}
	return f
}

// ParseFaults parses the DSL into a step-ordered plan. An empty string is a
// valid empty plan.
func ParseFaults(spec string) ([]faultOp, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var plan []faultOp
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if _, plant := plants[clause]; plant {
			continue
		}
		name, rest, ok := strings.Cut(clause, "@")
		if !ok {
			return nil, fmt.Errorf("sim: fault clause %q: missing @step", clause)
		}
		stepStr, arg, ok := strings.Cut(rest, ":")
		if !ok {
			return nil, fmt.Errorf("sim: fault clause %q: missing :arg", clause)
		}
		step, err := strconv.Atoi(stepStr)
		if err != nil || step < 0 {
			return nil, fmt.Errorf("sim: fault clause %q: bad step %q", clause, stepStr)
		}
		op := faultOp{step: step}
		switch name {
		case "crash", "restart":
			site, err := strconv.Atoi(arg)
			if err != nil || site <= 0 {
				return nil, fmt.Errorf("sim: fault clause %q: bad site %q", clause, arg)
			}
			op.kind = EvCrash
			if name == "restart" {
				op.kind = EvRestart
			}
			op.a = ids.SiteID(site)
		case "partition", "heal":
			aStr, bStr, ok := strings.Cut(arg, "-")
			if !ok {
				return nil, fmt.Errorf("sim: fault clause %q: want A-B", clause)
			}
			a, err1 := strconv.Atoi(aStr)
			b, err2 := strconv.Atoi(bStr)
			if err1 != nil || err2 != nil || a <= 0 || b <= 0 || a == b {
				return nil, fmt.Errorf("sim: fault clause %q: bad pair %q", clause, arg)
			}
			op.kind = EvPartition
			if name == "heal" {
				op.kind = EvHeal
			}
			op.a, op.b = ids.SiteID(a), ids.SiteID(b)
		case "drop", "dup":
			n, err := strconv.Atoi(arg)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("sim: fault clause %q: bad count %q", clause, arg)
			}
			op.kind = EvDrop
			if name == "dup" {
				op.kind = EvDup
			}
			op.n = n
		default:
			return nil, fmt.Errorf("sim: fault clause %q: unknown fault %q", clause, name)
		}
		plan = append(plan, op)
	}
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].step < plan[j].step })
	return plan, nil
}
