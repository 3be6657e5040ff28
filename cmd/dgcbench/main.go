// Command dgcbench regenerates the paper-reproduction experiment tables
// indexed in DESIGN.md and recorded in EXPERIMENTS.md.
//
// Usage:
//
//	dgcbench -exp all
//	dgcbench -exp messages      # C1: 2E+P message complexity
//	dgcbench -exp distance      # C2: distance theorem
//	dgcbench -exp insets        # C3: Section 5.1 vs 5.2 outset computation
//	dgcbench -exp space         # C4: O(ni*no) back-information bound
//	dgcbench -exp threshold     # C5: back-threshold tuning
//	dgcbench -exp locality      # C7: locality with a crashed site
//	dgcbench -exp baselines     # C8: comparison with related-work schemes
//	dgcbench -exp timeline      # C11: rounds from garbage to reclaimed
//	dgcbench -exp overlap       # C9: concurrent back traces on one cycle
//	dgcbench -exp telemetry     # C13: 2W+P re-verified via the typed registry and span trees
//	dgcbench -exp hypertext     # intro workload end to end
//	dgcbench -exp wire          # C17: binary wire codec + link batching
//	dgcbench -exp backtrace     # C18: trace-traffic engine vs storm baseline
//
// -json FILE additionally writes the tables as JSON to FILE; -check (with
// -exp wire, backtrace, or all) exits nonzero if the binary codec bloats
// frames or allocations past its absolute budget, if link batching changes
// the back-trace cost or the collection outcome, or if the trace-traffic
// engine stops beating the trace-storm baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"backtrace/internal/cluster"
	"backtrace/internal/experiments"
	"backtrace/internal/workload"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, messages, distance, insets, space, threshold, timeline, locality, baselines, overlap, telemetry, hypertext, wire, backtrace)")
	scale := flag.Int("scale", 20, "size multiplier for the inset experiment")
	jsonOut := flag.String("json", "", "also write the tables as JSON to this file")
	check := flag.Bool("check", false, "with -exp wire/backtrace: fail if the binary codec exceeds its frame-size or allocation budget, link batching changes the back-trace cost or what is collected, or the engine stops beating the trace-storm baseline")
	// Shared transport surface (same flags as dgcnode/dgcsim). The codec
	// applies to every standard experiment cluster; the experiments are
	// stepped, so -batch is rejected. The wire experiment pins its own
	// codec and batching so its gate ignores these.
	var tcfg cluster.TransportConfig
	tcfg.RegisterFlags(nil)
	flag.Parse()

	experiments.Transport = tcfg

	var err error
	if _, cerr := tcfg.ResolveCodec(); cerr != nil {
		err = cerr
	} else if serr := tcfg.CheckStepped(); serr != nil {
		err = serr
	} else {
		var res results
		if res, err = run(*exp, *scale); err == nil {
			for _, t := range res.tables {
				fmt.Println(t)
			}
		}
		if err == nil && *jsonOut != "" {
			err = writeJSON(*jsonOut, res.tables)
		}
		if err == nil && *check {
			if res.wireCodecRows == nil && res.backtraceRows == nil {
				err = fmt.Errorf("-check requires a checkable experiment (-exp wire, backtrace, or all)")
			}
			if err == nil && res.wireCodecRows != nil {
				err = experiments.CheckWire(res.wireCodecRows, res.wireBatchRows)
			}
			if err == nil && res.backtraceRows != nil {
				err = experiments.CheckBacktrace(res.backtraceRows)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dgcbench:", err)
		os.Exit(1)
	}
}

// writeJSON writes the tables as indented JSON to path.
func writeJSON(path string, tables []*experiments.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(tables); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// results bundles the rendered tables with the raw rows the -check gates
// re-examine.
type results struct {
	tables        []*experiments.Table
	wireCodecRows []experiments.WireCodecRow
	wireBatchRows []experiments.WireBatchRow
	backtraceRows []experiments.BacktraceRow
}

func run(exp string, scale int) (results, error) {
	all := exp == "all"
	ran := false
	var tables []*experiments.Table
	var wireCodecRows []experiments.WireCodecRow
	var wireBatchRows []experiments.WireBatchRow
	var backtraceRows []experiments.BacktraceRow

	if all || exp == "messages" {
		ran = true
		specs := []workload.Spec{
			workload.Ring(2), workload.Ring(4), workload.Ring(8),
			workload.Ring(16), workload.Ring(32),
			workload.DenseCycle(4, 4, 0, 1),
		}
		rows, err := experiments.MessagesPerTrace(specs)
		if err != nil {
			return results{}, err
		}
		tables = append(tables, experiments.MessagesTable(rows))
	}

	if all || exp == "distance" {
		ran = true
		rows := experiments.DistanceConvergence([]int{2, 4, 8}, 8)
		tables = append(tables, experiments.DistanceTable(rows))
	}

	if all || exp == "insets" {
		ran = true
		rows := experiments.InsetComparison(scale)
		tables = append(tables, experiments.InsetTable(rows))
	}

	if all || exp == "space" {
		ran = true
		specs := []workload.Spec{
			workload.Ring(3),
			workload.DenseCycle(3, 6, 8, 1),
		}
		rows, err := experiments.SpaceBound(specs)
		if err != nil {
			return results{}, err
		}
		tables = append(tables, experiments.SpaceTable(rows))
	}

	if all || exp == "threshold" {
		ran = true
		rows := experiments.ThresholdTuning([]int{4, 6, 8, 12, 16, 24})
		tables = append(tables, experiments.ThresholdTable(rows))
	}

	if all || exp == "locality" {
		ran = true
		rows, err := experiments.LocalityUnderCrash(25)
		if err != nil {
			return results{}, err
		}
		tables = append(tables, experiments.LocalityTable(rows))
	}

	if all || exp == "baselines" {
		ran = true
		for _, cfg := range [][2]int{{2, 2}, {4, 2}, {8, 2}} {
			rows, err := experiments.CompareCollectors(cfg[0], cfg[1])
			if err != nil {
				return results{}, err
			}
			tables = append(tables, experiments.CompareTable(cfg[0], cfg[1], rows))
		}
	}

	if all || exp == "timeline" {
		ran = true
		rows := experiments.Timeline([]int{2, 4, 8, 16}, 3, 7)
		tables = append(tables, experiments.TimelineTable(rows))
	}

	if all || exp == "overlap" {
		ran = true
		rows := experiments.Overlap([]int{2, 4, 8})
		tables = append(tables, experiments.OverlapTable(rows))
	}

	if all || exp == "telemetry" {
		ran = true
		var rows []experiments.TelemetryRow
		for _, spec := range []workload.Spec{
			workload.Ring(3), workload.Ring(6), workload.Ring(12), workload.ParallelPair(4),
		} {
			row, err := experiments.TelemetryComplexity(spec)
			if err != nil {
				return results{}, err
			}
			rows = append(rows, row)
		}
		tables = append(tables, experiments.TelemetryTable(rows))
	}

	if all || exp == "hypertext" {
		ran = true
		var rows []experiments.HypertextRow
		for _, docs := range []int{6, 12, 24} {
			row, err := experiments.Hypertext(docs, 6, 42)
			if err != nil {
				return results{}, err
			}
			rows = append(rows, row)
		}
		tables = append(tables, experiments.HypertextTable(rows))
	}

	if all || exp == "wire" {
		ran = true
		codecRows, err := experiments.WireCodecBench(2000)
		if err != nil {
			return results{}, err
		}
		wireCodecRows = codecRows
		tables = append(tables, experiments.WireCodecTable(codecRows))
		batchRows, err := experiments.WireBatch(6)
		if err != nil {
			return results{}, err
		}
		wireBatchRows = batchRows
		tables = append(tables, experiments.WireBatchTable(batchRows))
	}

	if all || exp == "backtrace" {
		ran = true
		rows, err := experiments.BacktraceTraffic(4, 40, 12, 12)
		if err != nil {
			return results{}, err
		}
		backtraceRows = rows
		tables = append(tables, experiments.BacktraceTable(rows))
	}

	if !ran {
		return results{}, fmt.Errorf("unknown experiment %q", exp)
	}
	return results{
		tables:        tables,
		wireCodecRows: wireCodecRows,
		wireBatchRows: wireBatchRows,
		backtraceRows: backtraceRows,
	}, nil
}
