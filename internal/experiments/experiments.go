// Package experiments implements the paper-reproduction experiment suite
// indexed in DESIGN.md (rows C1–C10). Each experiment builds its workload,
// runs the collector (and baselines where relevant), and returns printable
// rows; cmd/dgcbench renders them as tables and the root benchmarks wrap
// them as testing.B targets. EXPERIMENTS.md records sample output next to
// the paper's claims.
package experiments

import (
	"fmt"
	"strings"

	"backtrace/internal/cluster"
	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/site"
	"backtrace/internal/workload"
)

// Transport carries the shared -codec flag (cluster.TransportConfig,
// registered by cmd/dgcbench like the other commands) into every standard
// experiment cluster. The default "none" keeps the in-process fast path so
// `go test -bench` numbers are unaffected; dgcbench overrides it from its
// flags. Experiment clusters are stepped, which the session-layer batcher
// is not, so dgcbench rejects -batch. The C17 wire experiment ignores this
// and pins its own codec and batching, so its gate stays flag-independent.
var Transport = cluster.TransportConfig{Codec: "none"}

// clusterFor builds the standard experiment cluster.
func clusterFor(sites int, auto bool) *cluster.Cluster {
	opts := cluster.Options{
		NumSites: sites,
		Site: site.Config{
			SuspicionThreshold: 3,
			BackThreshold:      7,
			ThresholdBump:      4,
			AutoBackTrace:      auto,
		},
	}
	if codec, err := Transport.ResolveCodec(); err == nil {
		opts.Codec = codec
	}
	return cluster.New(opts)
}

// Table is a printable experiment result.
type Table struct {
	Title   string
	Header  []string
	Rows    [][]string
	Caption string
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Caption != "" {
		fmt.Fprintf(&b, "-- %s\n", t.Caption)
	}
	return b.String()
}

// --- C1: message complexity 2E+P ------------------------------------------

// MessagesRow is one row of the message-complexity experiment.
type MessagesRow struct {
	Workload    string
	Sites       int // P: participant sites
	InterSite   int // E: inter-site references traversed
	BackCalls   int64
	BackReplies int64
	Reports     int64
	Total       int64
	Predicted   int64 // 2E + (P-1): the initiator reports to itself locally
}

// MessagesPerTrace measures the messages one back trace sends over garbage
// cycles of various shapes, against the paper's 2E+P bound (Section 4.6).
// Our implementation delivers the initiator's own report locally, so the
// wire prediction is 2E + (P-1).
func MessagesPerTrace(specs []workload.Spec) ([]MessagesRow, error) {
	var rows []MessagesRow
	for _, spec := range specs {
		c := clusterFor(spec.Sites, false)
		refs, err := workload.Build(c, spec)
		if err != nil {
			c.Close()
			return nil, err
		}
		// Propagate distances until everything on the cycle is suspected.
		c.RunRounds(10)
		before := c.Counters().Snapshot()

		// Start one back trace from a suspected outref of site 1 (any
		// cycle member works; pick deterministically).
		started := false
		for _, s := range c.Sites() {
			for _, o := range s.Outrefs() {
				if !o.Clean {
					if _, ok := s.StartBackTrace(o.Target); ok {
						started = true
					}
					break
				}
			}
			if started {
				break
			}
		}
		if !started {
			c.Close()
			return nil, fmt.Errorf("messages: no suspected outref in %s", spec.Name)
		}
		c.Settle()
		after := c.Counters().Snapshot()

		e := spec.InterSiteEdges()
		p := spec.SitesTouched()
		row := MessagesRow{
			Workload:    spec.Name,
			Sites:       p,
			InterSite:   e,
			BackCalls:   after["msg.BackCall"] - before["msg.BackCall"],
			BackReplies: after["msg.BackReply"] - before["msg.BackReply"],
			Reports:     after["msg.Report"] - before["msg.Report"],
			Predicted:   int64(2*e + p - 1),
		}
		row.Total = row.BackCalls + row.BackReplies + row.Reports
		rows = append(rows, row)
		_ = refs
		c.Close()
	}
	return rows, nil
}

// MessagesTable renders MessagesPerTrace rows.
func MessagesTable(rows []MessagesRow) *Table {
	t := &Table{
		Title:   "C1: back-trace message complexity (paper: 2E+P)",
		Header:  []string{"workload", "P(sites)", "E(refs)", "calls", "replies", "reports", "total", "2E+P-1"},
		Caption: "one back trace per workload; initiator's own report is local, hence P-1 report messages",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Workload,
			fmt.Sprint(r.Sites), fmt.Sprint(r.InterSite),
			fmt.Sprint(r.BackCalls), fmt.Sprint(r.BackReplies), fmt.Sprint(r.Reports),
			fmt.Sprint(r.Total), fmt.Sprint(r.Predicted),
		})
	}
	return t
}

// --- C2: the distance theorem ----------------------------------------------

// DistanceRow records the minimum estimated distance on a garbage cycle
// after each round.
type DistanceRow struct {
	Sites   int
	Round   int
	MinDist int
	Holds   bool // theorem: MinDist >= Round
}

// DistanceConvergence measures Section 3's theorem — after d rounds every
// ioref of a garbage cycle has estimated distance at least d.
func DistanceConvergence(sizes []int, rounds int) []DistanceRow {
	var rows []DistanceRow
	for _, n := range sizes {
		c := cluster.New(cluster.Options{
			NumSites: n,
			Site: site.Config{
				SuspicionThreshold: 3,
				BackThreshold:      1 << 20, // disable back traces
			},
		})
		objs := c.BuildRing()
		for round := 1; round <= rounds; round++ {
			c.RunRound()
			min := int(^uint(0) >> 1)
			for _, o := range objs {
				if d := c.Site(o.Site).InrefDistance(o.Obj); d < min {
					min = d
				}
			}
			rows = append(rows, DistanceRow{Sites: n, Round: round, MinDist: min, Holds: min >= round})
		}
		c.Close()
	}
	return rows
}

// DistanceTable renders DistanceConvergence rows.
func DistanceTable(rows []DistanceRow) *Table {
	t := &Table{
		Title:   "C2: distance theorem (after d rounds, cycle distances >= d)",
		Header:  []string{"sites", "round d", "min distance", "holds"},
		Caption: "garbage ring; every site traces once per round",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.Sites), fmt.Sprint(r.Round), fmt.Sprint(r.MinDist), fmt.Sprint(r.Holds),
		})
	}
	return t
}

// --- C5: back-threshold tuning ----------------------------------------------

// ThresholdRow records collection behaviour for one back-threshold value.
type ThresholdRow struct {
	BackThreshold  int
	RoundsToClean  int
	TracesStarted  int64
	LiveOutcomes   int64
	GarbageOutcome int64
}

// ThresholdTuning sweeps the initial back threshold T2 on a workload with
// a garbage ring AND a live (rooted) far chain: too low a threshold fires
// premature traces that return Live; too high delays collection
// (Section 4.3).
func ThresholdTuning(t2s []int) []ThresholdRow {
	var rows []ThresholdRow
	for _, t2 := range t2s {
		c := cluster.New(cluster.Options{
			NumSites: 4,
			Site: site.Config{
				SuspicionThreshold: 3,
				BackThreshold:      t2,
				ThresholdBump:      4,
				AutoBackTrace:      true,
			},
		})
		// Garbage ring over all 4 sites.
		c.BuildRing()
		// A live chain crossing all sites repeatedly: its tail iorefs are
		// far from the root (distance ~8), i.e. live suspects.
		spec := workload.Chain(4, true)
		for loop := 0; loop < 1; loop++ {
			base := len(spec.Objects)
			for i := 0; i < 4; i++ {
				spec.Objects = append(spec.Objects, workload.ObjSpec{Site: ids.SiteID(i + 1)})
			}
			spec.Edges = append(spec.Edges, [2]int{3, base})
			for i := 0; i+1 < 4; i++ {
				spec.Edges = append(spec.Edges, [2]int{base + i, base + i + 1})
			}
		}
		if _, err := workload.Build(c, spec); err != nil {
			c.Close()
			continue
		}

		// Run a fixed horizon: after the garbage is gone, the live far
		// chain keeps its high distances, so a low back threshold keeps
		// firing abortive (Live) traces until the per-ioref thresholds
		// rise above the distances.
		const horizon = 30
		roundsToClean := horizon
		for r := 1; r <= horizon; r++ {
			c.RunRound()
			if roundsToClean == horizon && c.GarbageCount() == 0 {
				roundsToClean = r
			}
		}
		snap := c.Counters().Snapshot()
		rows = append(rows, ThresholdRow{
			BackThreshold:  t2,
			RoundsToClean:  roundsToClean,
			TracesStarted:  snap[metrics.BackTracesStarted],
			LiveOutcomes:   snap[metrics.BackTracesLive],
			GarbageOutcome: snap[metrics.BackTracesGarbage],
		})
		c.Close()
	}
	return rows
}

// ThresholdTable renders ThresholdTuning rows.
func ThresholdTable(rows []ThresholdRow) *Table {
	t := &Table{
		Title:   "C5: back-threshold tuning (T2 = T + cycle-length estimate)",
		Header:  []string{"T2", "rounds to clean", "traces", "live (abortive)", "garbage"},
		Caption: "low T2: premature Live traces on the live far chain; high T2: delayed collection",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.BackThreshold), fmt.Sprint(r.RoundsToClean),
			fmt.Sprint(r.TracesStarted), fmt.Sprint(r.LiveOutcomes), fmt.Sprint(r.GarbageOutcome),
		})
	}
	return t
}

// --- C4: back-information space ----------------------------------------------

// SpaceRow records back-information size against the O(ni*no) bound.
type SpaceRow struct {
	Workload string
	Site     ids.SiteID
	NI       int // suspected inrefs
	NO       int // suspected outrefs
	Entries  int
	Bound    int
}

// SpaceBound measures stored back information per site for several
// workloads after distances have grown past the suspicion threshold.
func SpaceBound(specs []workload.Spec) ([]SpaceRow, error) {
	var rows []SpaceRow
	for _, spec := range specs {
		c := cluster.New(cluster.Options{
			NumSites: spec.Sites,
			Site: site.Config{
				SuspicionThreshold: 3,
				BackThreshold:      1 << 20,
			},
		})
		if _, err := workload.Build(c, spec); err != nil {
			c.Close()
			return nil, err
		}
		c.RunRounds(8)
		for _, s := range c.Sites() {
			ni, no := 0, 0
			for _, in := range s.Inrefs() {
				if !in.Clean {
					ni++
				}
			}
			for _, o := range s.Outrefs() {
				if !o.Clean {
					no++
				}
			}
			rows = append(rows, SpaceRow{
				Workload: spec.Name,
				Site:     s.ID(),
				NI:       ni,
				NO:       no,
				Entries:  s.BackInfoEntries(),
				Bound:    ni * no,
			})
		}
		c.Close()
	}
	return rows, nil
}

// SpaceTable renders SpaceBound rows.
func SpaceTable(rows []SpaceRow) *Table {
	t := &Table{
		Title:   "C4: back-information space (bound: ni*no pairs)",
		Header:  []string{"workload", "site", "ni", "no", "entries", "ni*no"},
		Caption: "entries = stored (inref,outref) reachability pairs",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Workload, r.Site.String(),
			fmt.Sprint(r.NI), fmt.Sprint(r.NO), fmt.Sprint(r.Entries), fmt.Sprint(r.Bound),
		})
	}
	return t
}
