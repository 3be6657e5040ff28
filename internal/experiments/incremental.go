package experiments

import (
	"fmt"
	"runtime"
	"time"

	"backtrace/internal/ids"
	"backtrace/internal/site"
	"backtrace/internal/transport"
)

// IncrementalRow is one (scenario, mode) measurement of experiment C15:
// steady-state local-trace cost with and without incremental tracing.
type IncrementalRow struct {
	Scenario string // "idle" or "mutate-1pct"
	Mode     string // "full" or "incremental"
	Objects  int
	Dirty    int // objects mutated per round
	Rounds   int
	NsPerOp  float64 // mean wall time per trace round
	AllocsOp float64 // mean heap allocations per trace round
	Remarks  int64
	Reused   int64 // remarks that reused the previous back information
}

// IncrementalTrace measures experiment C15: the per-round cost of a local
// trace on a heap of the given size, with and without the incremental remark,
// for an idle heap and for a heap where `dirty` objects gain a monotone edge
// each round. One warmup trace runs before measurement so the incremental
// mode's mandatory first full trace is excluded from the steady state.
func IncrementalTrace(objects, dirty, rounds int) ([]IncrementalRow, error) {
	var out []IncrementalRow
	for _, scenario := range []string{"idle", "mutate-1pct"} {
		for _, incremental := range []bool{false, true} {
			row, err := incrementalRun(scenario, incremental, objects, dirty, rounds)
			if err != nil {
				return nil, err
			}
			out = append(out, row)
		}
	}
	return out, nil
}

func incrementalRun(scenario string, incremental bool, objects, dirty, rounds int) (IncrementalRow, error) {
	net := transport.NewNet(transport.Options{})
	defer net.Close()
	s := site.New(site.Config{
		ID:                 1,
		Network:            net,
		SuspicionThreshold: 3,
		BackThreshold:      1 << 20,
		Incremental:        incremental,
	})
	defer s.Close()

	root := s.NewRootObject()
	objs := make([]ids.Ref, 0, objects)
	prev := root
	for j := 0; j < objects; j++ {
		o := s.NewObject()
		if err := s.AddReference(prev.Obj, o); err != nil {
			return IncrementalRow{}, err
		}
		prev = o
		objs = append(objs, o)
	}
	target := objs[0] // fixed live target for the monotone adds
	s.RunLocalTrace() // warmup: first trace is full in both modes

	mode := "full"
	if incremental {
		mode = "incremental"
	}
	row := IncrementalRow{
		Scenario: scenario, Mode: mode,
		Objects: objects, Rounds: rounds,
	}
	if scenario == "mutate-1pct" {
		row.Dirty = dirty
	}

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	idx := 0
	for i := 0; i < rounds; i++ {
		if scenario == "mutate-1pct" {
			for k := 0; k < dirty; k++ {
				if err := s.AddReference(objs[idx%len(objs)].Obj, target); err != nil {
					return IncrementalRow{}, err
				}
				idx++
			}
		}
		s.RunLocalTrace()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)

	row.NsPerOp = float64(elapsed.Nanoseconds()) / float64(rounds)
	row.AllocsOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(rounds)
	snap := s.Counters().Snapshot()
	row.Remarks = snap["localtrace.incremental.remarks"]
	row.Reused = snap["localtrace.incremental.outsets_reused"]
	return row, nil
}

// IncrementalTable renders the C15 rows.
func IncrementalTable(rows []IncrementalRow) *Table {
	t := &Table{
		Title:  "C15: incremental local tracing (steady-state trace cost)",
		Header: []string{"scenario", "mode", "objects", "dirty/round", "rounds", "ns/round", "allocs/round", "remarks", "outsets-reused"},
		Caption: "both modes patch a shadow snapshot from the dirty set; full mode re-marks " +
			"the whole heap every round, incremental mode remarks only from the dirty set",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Scenario, r.Mode,
			fmt.Sprintf("%d", r.Objects),
			fmt.Sprintf("%d", r.Dirty),
			fmt.Sprintf("%d", r.Rounds),
			fmt.Sprintf("%.0f", r.NsPerOp),
			fmt.Sprintf("%.0f", r.AllocsOp),
			fmt.Sprintf("%d", r.Remarks),
			fmt.Sprintf("%d", r.Reused),
		})
	}
	return t
}

// CheckIncremental enforces the CI smoke gate: on the idle-heap scenario the
// incremental mode must not be slower than the full mode by more than 10%.
// (Idle is the regression canary: the remark does nothing there, so any
// slowdown is pure overhead in the snapshot/delta machinery.)
func CheckIncremental(rows []IncrementalRow) error {
	var fullNs, incNs float64
	for _, r := range rows {
		if r.Scenario != "idle" {
			continue
		}
		switch r.Mode {
		case "full":
			fullNs = r.NsPerOp
		case "incremental":
			incNs = r.NsPerOp
		}
	}
	if fullNs == 0 || incNs == 0 {
		return fmt.Errorf("check: missing idle rows (full=%v incremental=%v)", fullNs, incNs)
	}
	if incNs > fullNs*1.10 {
		return fmt.Errorf("check: idle-heap incremental trace %.0fns/round exceeds full %.0fns/round by more than 10%%",
			incNs, fullNs)
	}
	return nil
}
