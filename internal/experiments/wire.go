package experiments

import (
	"fmt"

	"backtrace/internal/cluster"
	"backtrace/internal/metrics"
	"backtrace/internal/site"
	"backtrace/internal/wire"
	"backtrace/internal/workload"
)

// --- C17: link-level batching over the binary codec -------------------------

// WireBatchRow is one batching setting's count bundle: the logical
// back-trace message count for a controlled single trace against the
// paper's 2E+P−1 bound, plus frame/byte/collection totals from a full
// two-ring collection showing what batching coalesced.
type WireBatchRow struct {
	Setting   string
	Sites     int   // P
	InterSite int   // E
	BackMsgs  int64 // BackCall+BackReply+Report sent during the trace window (retransmits excluded)
	Predicted int64 // 2E + P - 1
	Collected int   // objects collected in the full-collection run
	Logical   int64 // full run: msg.total (leaves)
	Frames    int64 // full run: wire.frames (physical envelopes)
	Bytes     int64 // full run: wire.bytes (binary codec)
}

// WireBatch re-runs the C1 measurement under the binary codec without and
// with the session layer (cluster.Options.Reliable), which batches each
// link's messages into LinkBatch frames. Batching must be invisible to the
// protocol — the controlled back trace still costs exactly 2E+P−1
// messages and the full collection reclaims the same objects — while
// physical frames drop below the logical count. The batched runs are
// timer-driven, so their frame counts vary run to run.
func WireBatch(sites int) ([]WireBatchRow, error) {
	settings := []struct {
		name     string
		reliable bool
	}{{"unbatched", false}, {"batched", true}}
	rows := make([]WireBatchRow, 0, len(settings))
	for _, set := range settings {
		row, err := wireTraceWindow(sites, set.name, set.reliable)
		if err != nil {
			return nil, err
		}
		wireFullCollection(&row, set.reliable)
		rows = append(rows, row)
	}
	return rows, nil
}

// wireTraceWindow runs the controlled single-trace measurement: a garbage
// ring, one back trace, message counts diffed over the trace window.
func wireTraceWindow(sites int, name string, reliable bool) (WireBatchRow, error) {
	spec := workload.Ring(sites)
	c := cluster.New(cluster.Options{
		NumSites: sites,
		Codec:    wire.Binary{},
		Reliable: reliable,
		Site: site.Config{
			SuspicionThreshold: 3,
			BackThreshold:      7,
			ThresholdBump:      4,
		},
	})
	defer c.Close()
	w, err := oneBackTrace(c, spec)
	if err != nil {
		return WireBatchRow{}, fmt.Errorf("wire batch (%s): %w", name, err)
	}
	e := spec.InterSiteEdges()
	p := spec.SitesTouched()
	// The window carries only back-trace traffic, so the session layer's
	// retransmitted copies (counted per leaf, like first sends) are
	// subtracted: the bound is on what the protocol sends, not on how
	// often the link resends it.
	return WireBatchRow{
		Setting:   name,
		Sites:     p,
		InterSite: e,
		BackMsgs: w.delta("msg.BackCall") + w.delta("msg.BackReply") + w.delta("msg.Report") -
			w.delta(metrics.LinkRetransmits),
		Predicted: int64(2*e + p - 1),
	}, nil
}

// wireFullCollection fills in the physical-traffic half of a row: two
// interleaved garbage rings collected to stability, so sites emit several
// same-destination messages per step and batching has work to do.
func wireFullCollection(row *WireBatchRow, reliable bool) {
	c := cluster.New(cluster.Options{
		NumSites: 4,
		Codec:    wire.Binary{},
		Reliable: reliable,
		Site: site.Config{
			SuspicionThreshold: 3,
			BackThreshold:      7,
			ThresholdBump:      4,
			AutoBackTrace:      true,
		},
	})
	defer c.Close()
	c.BuildRing()
	c.BuildRing()
	_, collected := c.CollectUntilStable(40)
	snap := c.Metrics()
	row.Collected = collected
	row.Logical = snap.Get("msg.total")
	row.Frames = snap.Get("wire.frames")
	row.Bytes = snap.Get("wire.bytes")
}

// WireBatchTable renders the batching rows.
func WireBatchTable(rows []WireBatchRow) *Table {
	t := &Table{
		Title: "C17b: link batching vs the 2E+P-1 bound (binary codec, ring)",
		Header: []string{"setting", "P(sites)", "E(refs)", "trace-msgs", "2E+P-1",
			"collected", "logical-total", "frames", "bytes"},
		Caption: "batched = cluster.Options{Reliable: true}, the session layer's LinkBatch, " +
			"timer-driven (its counts vary run to run); trace-msgs excludes retransmitted " +
			"copies and equals 2E+P-1 in both rows; logical-total (msg.total, per leaf) " +
			"also counts the session layer's LinkAck frames, so the rows differ; " +
			"batched frames < logical-total",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Setting,
			fmt.Sprint(r.Sites), fmt.Sprint(r.InterSite),
			fmt.Sprint(r.BackMsgs), fmt.Sprint(r.Predicted), fmt.Sprint(r.Collected),
			fmt.Sprint(r.Logical), fmt.Sprint(r.Frames), fmt.Sprint(r.Bytes),
		})
	}
	return t
}

// maxUnbatchedBytes is the C17 byte ceiling, tight enough that a message
// carrying a fact twice fails it: the unbatched two-ring collection is
// deterministic and sends exactly this many bytes. The codec's own budget
// on a synthetic mix is a wire package test.
const maxUnbatchedBytes = 423

// CheckWire enforces the CI gate for C17: batching must leave the logical
// back-trace cost at exactly 2E+P−1 and strictly reduce physical frames
// below the logical count, while the unbatched run's frames match its
// logical count one-to-one and its bytes stay within their ceiling.
func CheckWire(batchRows []WireBatchRow) error {
	if len(batchRows) == 0 {
		return fmt.Errorf("check: no wire batch rows")
	}
	for i := 1; i < len(batchRows); i++ {
		if batchRows[i].Collected != batchRows[0].Collected {
			return fmt.Errorf("check: %s collected %d objects, %s collected %d — batching changed outcomes",
				batchRows[i].Setting, batchRows[i].Collected, batchRows[0].Setting, batchRows[0].Collected)
		}
	}
	for _, r := range batchRows {
		if r.BackMsgs != r.Predicted {
			return fmt.Errorf("check: %s back trace cost %d messages, want exactly %d (2E+P-1)",
				r.Setting, r.BackMsgs, r.Predicted)
		}
		switch r.Setting {
		case "unbatched":
			if r.Frames != r.Logical {
				return fmt.Errorf("check: unbatched frames (%d) != logical messages (%d)", r.Frames, r.Logical)
			}
			if r.Bytes > maxUnbatchedBytes {
				return fmt.Errorf("check: unbatched collection sent %d bytes (want <= %d)", r.Bytes, maxUnbatchedBytes)
			}
		case "batched":
			if r.Frames >= r.Logical {
				return fmt.Errorf("check: batching did not coalesce (frames %d >= logical %d)", r.Frames, r.Logical)
			}
		}
	}
	return nil
}
