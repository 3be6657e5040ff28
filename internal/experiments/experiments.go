// Package experiments implements the paper-reproduction experiment suite
// indexed in DESIGN.md (rows C1–C5, C7–C9, C11, C13, C17b and C18; C13's
// span-tree columns print in the C1 table). Each
// experiment builds its workload, runs the collector (and baselines where
// relevant), and returns printable rows. The package's tests are the one
// harness: each runs its experiment at the parameters EXPERIMENTS.md
// publishes, asserts the paper's claim and logs the table, so
// go test ./internal/experiments -v prints every table. EXPERIMENTS.md
// records sample output next to the paper's claims.
package experiments

import (
	"fmt"
	"strings"

	"backtrace/internal/cluster"
	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/obs"
	"backtrace/internal/site"
	"backtrace/internal/wire"
	"backtrace/internal/workload"
)

// clusterFor builds the standard experiment cluster. Every message
// round-trips through the binary codec, as on a TCP link; the cluster is
// stepped, so there is no session-layer batcher.
func clusterFor(sites int, auto bool) *cluster.Cluster {
	return cluster.New(cluster.Options{
		NumSites: sites,
		Codec:    wire.Binary{},
		Site: site.Config{
			SuspicionThreshold: 3,
			BackThreshold:      7,
			ThresholdBump:      4,
			AutoBackTrace:      auto,
		},
	})
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

// --- C1: message complexity 2E+P (with C13's span-tree columns) -----------

// traceWindow is the cluster's typed metrics registry before and after one
// back trace.
type traceWindow struct{ before, after obs.Snapshot }

// delta is how much counter name grew over the window.
func (w traceWindow) delta(name string) int64 { return w.after.Get(name) - w.before.Get(name) }

// oneBackTrace builds spec on c, runs rounds until the garbage is
// suspected, starts one back trace from the first suspected outref in site
// order, and settles the cluster: the single-trace measurement of C1 and
// C17b.
func oneBackTrace(c *cluster.Cluster, spec workload.Spec) (traceWindow, error) {
	if _, err := workload.Build(c, spec); err != nil {
		return traceWindow{}, err
	}
	c.RunRounds(10)
	w := traceWindow{before: c.Metrics()}
	started := false
	for _, s := range c.Sites() {
		for _, o := range s.Outrefs() {
			if !o.Clean {
				_, started = s.StartBackTrace(o.Target)
				break
			}
		}
		if started {
			break
		}
	}
	if !started {
		return traceWindow{}, fmt.Errorf("no suspected outref on %s", spec.Name)
	}
	c.Settle()
	w.after = c.Metrics()
	return w, nil
}

// MessagesRow is one row of the message-complexity experiment. The counts
// are typed registry diffs over one back trace; the participant count and
// the crossing count W are read off the trace's assembled span tree rather
// than trusted from the workload spec (C13).
type MessagesRow struct {
	Workload     string
	Sites        int // P: participant sites
	InterSite    int // E: inter-site references traversed
	BackCalls    int64
	BackReplies  int64
	Reports      int64
	Total        int64
	Predicted    int64 // 2E + (P-1): the initiator reports to itself locally
	Crossings    int   // W: BackCalls handled, summed over the span tree's participant spans
	PredictedW   int64 // 2W + (P-1)
	Participants int   // closed participant spans in the trace's span tree
	RTTSamples   int64 // backtrace.rtt_seconds observations for the trace
}

// MessagesPerTrace measures the messages one back trace sends over garbage
// cycles of various shapes, against the paper's 2E+P bound (Section 4.6).
// Our implementation delivers the initiator's own report locally, so the
// wire prediction is 2E + (P-1). A site sends one BackCall per destination
// for all the steps one call fans out to, so the exact count is 2W+P−1,
// with W one per (handled call, destination site) pair; on a ring every
// hop crosses a distinct site pair, so W = E.
func MessagesPerTrace(specs []workload.Spec) ([]MessagesRow, error) {
	var rows []MessagesRow
	for _, spec := range specs {
		row, err := messagesRow(spec)
		if err != nil {
			return nil, fmt.Errorf("messages: %w", err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// messagesRow runs one MessagesPerTrace measurement.
func messagesRow(spec workload.Spec) (MessagesRow, error) {
	c := clusterFor(spec.Sites, false)
	defer c.Close()
	w, err := oneBackTrace(c, spec)
	if err != nil {
		return MessagesRow{}, err
	}
	e := spec.InterSiteEdges()
	p := spec.SitesTouched()
	row := MessagesRow{
		Workload:    spec.Name,
		Sites:       p,
		InterSite:   e,
		BackCalls:   w.delta("msg.BackCall"),
		BackReplies: w.delta("msg.BackReply"),
		Reports:     w.delta("msg.Report"),
		Predicted:   int64(2*e + p - 1),
		RTTSamples: w.after.Histograms[obs.MetricBackTraceRTT].Count -
			w.before.Histograms[obs.MetricBackTraceRTT].Count,
	}
	row.Total = row.BackCalls + row.BackReplies + row.Reports

	// Read P and W off the span tree the collector assembled for the
	// garbage trace (distance propagation may have run earlier Live traces,
	// so pick the complete garbage-verdict tree).
	for _, tree := range c.Spans().Trees() {
		if tree.Root != nil && tree.Complete() && tree.Root.Verdict == 0 /* garbage */ {
			row.Participants = len(tree.Participants)
			row.Crossings = 0
			for _, sp := range tree.Participants {
				row.Crossings += sp.Hops
			}
		}
	}
	row.PredictedW = int64(2*row.Crossings + p - 1)
	return row, nil
}

// MessagesTable renders MessagesPerTrace rows.
func MessagesTable(rows []MessagesRow) *Table {
	t := &Table{
		Title: "C1: back-trace message complexity (paper: 2E+P)",
		Header: []string{"workload", "P(sites)", "E(refs)", "calls", "replies",
			"reports", "total", "2E+P-1", "span W", "2W+P-1", "span-participants", "rtt-samples"},
		Caption: "one back trace per workload; counts are typed registry diffs, and P and W " +
			"(BackCalls handled) are read off the assembled span tree; the initiator's own " +
			"report is local, hence P-1 report messages",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Workload,
			fmt.Sprint(r.Sites), fmt.Sprint(r.InterSite),
			fmt.Sprint(r.BackCalls), fmt.Sprint(r.BackReplies), fmt.Sprint(r.Reports),
			fmt.Sprint(r.Total), fmt.Sprint(r.Predicted),
			fmt.Sprint(r.Crossings), fmt.Sprint(r.PredictedW),
			fmt.Sprint(r.Participants), fmt.Sprint(r.RTTSamples),
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
		snap := c.Metrics()
		rows = append(rows, ThresholdRow{
			BackThreshold:  t2,
			RoundsToClean:  roundsToClean,
			TracesStarted:  snap.Get(metrics.BackTracesStarted),
			LiveOutcomes:   snap.Get(metrics.BackTracesLive),
			GarbageOutcome: snap.Get(metrics.BackTracesGarbage),
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
