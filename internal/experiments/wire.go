package experiments

import (
	"fmt"
	"runtime"
	"time"

	"backtrace/internal/cluster"
	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/msg"
	"backtrace/internal/site"
	"backtrace/internal/wire"
	"backtrace/internal/workload"
)

// --- C17: binary wire codec + link-level batching ---------------------------

// WireCodecRow is one codec's throughput over a representative protocol
// message mix: encode+decode round trips per second, bytes per message on
// the wire, and heap allocations per round trip.
type WireCodecRow struct {
	Codec       string
	MsgsPerSec  float64
	BytesPerMsg float64
	AllocsPerOp float64
}

// wireMix is the protocol traffic the codecs are measured on: one envelope
// per message kind the collector actually exchanges, with collection-typed
// fields populated, plus a session-layer batch — roughly the distribution a
// busy link carries.
func wireMix() []msg.Envelope {
	mk := func(m msg.Message) msg.Envelope { return msg.Envelope{From: 3, To: 9, M: m} }
	return []msg.Envelope{
		mk(msg.RefTransfer{Payload: ids.MakeRef(3, 77), Pinner: 2}),
		mk(msg.Insert{Target: ids.MakeRef(4, 1005), Holder: 3, Pinner: 2}),
		mk(msg.InsertAck{Target: ids.MakeRef(4, 1005)}),
		mk(msg.ReleasePin{Target: ids.MakeRef(1, 9)}),
		mk(msg.Update{
			Removals: []ids.ObjID{5, 9, 1 << 20},
			Distances: []msg.DistanceUpdate{
				{Obj: 5, Distance: 0}, {Obj: 1 << 19, Distance: 12}, {Obj: 7, Distance: 3},
			},
			Holds: []ids.ObjID{1, 2, 3},
		}),
		mk(msg.BackCall{
			Trace:     ids.TraceID{Initiator: 6, Seq: 21},
			Initiator: 6,
			Steps:     []msg.BackStep{{Caller: ids.FrameID{Site: 2, Seq: 19}, Outref: ids.MakeRef(2, 42)}},
		}),
		mk(msg.BackReply{
			Trace: ids.TraceID{Initiator: 6, Seq: 7},
			Results: []msg.BackResult{
				{Caller: ids.FrameID{Site: 2, Seq: 19}, Result: msg.VerdictLive, Participants: []ids.SiteID{1, 5, 9}},
			},
		}),
		mk(msg.Report{Trace: ids.TraceID{Initiator: 1, Seq: 2}, Outcome: msg.VerdictGarbage}),
		mk(msg.LinkBatch{
			Epoch: 2, Base: 41, AckEpoch: 5, AckCum: 1044, AckInc: 1,
			Items: []msg.Message{
				msg.Update{Holds: []ids.ObjID{1, 4}},
				msg.Insert{Target: ids.MakeRef(2, 8), Holder: 1, Pinner: 1},
				msg.InsertAck{Target: ids.MakeRef(2, 9)},
				msg.Report{Trace: ids.TraceID{Initiator: 3, Seq: 4}, Outcome: msg.VerdictLive},
			},
		}),
	}
}

// WireCodecBench measures every registered codec over the wireMix: iters
// full passes of encode+decode per codec. Alloc counts come from the
// runtime's Mallocs counter, so the measurement loop must not be concurrent
// with other work (dgcbench runs it alone). Binary is the only codec since
// the gob fallback's removal; historical gob numbers are in EXPERIMENTS.md C17.
func WireCodecBench(iters int) ([]WireCodecRow, error) {
	if iters <= 0 {
		iters = 2000
	}
	mix := wireMix()
	codecs := []wire.Codec{wire.Binary{}}
	rows := make([]WireCodecRow, 0, len(codecs))
	for _, c := range codecs {
		roundTrip := func() (int64, error) {
			var bytes int64
			for i := range mix {
				buf := wire.GetBuffer()
				frame, err := c.Encode(&mix[i], buf)
				if err != nil {
					wire.PutBuffer(buf)
					return 0, fmt.Errorf("wire bench: %s encode: %w", c.Name(), err)
				}
				bytes += int64(len(frame))
				if _, err := c.Decode(frame); err != nil {
					wire.PutBuffer(frame)
					return 0, fmt.Errorf("wire bench: %s decode: %w", c.Name(), err)
				}
				wire.PutBuffer(frame)
			}
			return bytes, nil
		}
		// Warm up the buffer pools before measuring.
		if _, err := roundTrip(); err != nil {
			return nil, err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		var bytes int64
		for i := 0; i < iters; i++ {
			n, err := roundTrip()
			if err != nil {
				return nil, err
			}
			bytes = n // per-pass wire volume is identical every pass
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		ops := float64(iters * len(mix))
		rows = append(rows, WireCodecRow{
			Codec:       c.Name(),
			MsgsPerSec:  ops / elapsed.Seconds(),
			BytesPerMsg: float64(bytes) / float64(len(mix)),
			AllocsPerOp: float64(after.Mallocs-before.Mallocs) / ops,
		})
	}
	return rows, nil
}

// WireCodecTable renders the codec throughput rows.
func WireCodecTable(rows []WireCodecRow) *Table {
	t := &Table{
		Title:  "C17a: wire codec throughput (encode+decode round trip, protocol mix)",
		Header: []string{"codec", "msgs/sec", "bytes/msg", "allocs/op"},
		Caption: "representative protocol message mix; binary is the only framing " +
			"(the gob fallback was removed, format byte 0x00 stays reserved)",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Codec,
			fmt.Sprintf("%.0f", r.MsgsPerSec),
			fmt.Sprintf("%.1f", r.BytesPerMsg),
			fmt.Sprintf("%.2f", r.AllocsPerOp),
		})
	}
	return t
}

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

// WireBatch re-runs the C13 measurement under the binary codec with and
// without the session layer's link batching (cluster.Options.Batch).
// Batching must be invisible to the protocol — the controlled back trace
// still costs exactly 2E+P−1 messages and the full collection reclaims the
// same objects — while physical frames drop below the logical count. The
// batched runs are timer-driven, so their frame counts vary run to run.
func WireBatch(sites int) ([]WireBatchRow, error) {
	settings := []struct {
		name  string
		batch int
	}{{"unbatched", 0}, {"batched", 8}}
	rows := make([]WireBatchRow, 0, len(settings))
	for _, set := range settings {
		row, err := wireTraceWindow(sites, set.name, set.batch)
		if err != nil {
			return nil, err
		}
		if err := wireFullCollection(&row, set.batch); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// wireTraceWindow runs the controlled single-trace measurement: a garbage
// ring, one back trace, message counts diffed over the trace window.
func wireTraceWindow(sites int, name string, batch int) (WireBatchRow, error) {
	spec := workload.Ring(sites)
	c := cluster.New(cluster.Options{
		NumSites: sites,
		Codec:    wire.Binary{},
		Batch:    batch,
		Site: site.Config{
			SuspicionThreshold: 3,
			BackThreshold:      7,
			ThresholdBump:      4,
		},
	})
	defer c.Close()
	if _, err := workload.Build(c, spec); err != nil {
		return WireBatchRow{}, err
	}
	c.RunRounds(10)
	before := c.Metrics()

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
		return WireBatchRow{}, fmt.Errorf("wire batch: no suspected outref on the %d-site ring (%s)", sites, name)
	}
	c.Settle()
	after := c.Metrics()

	e := spec.InterSiteEdges()
	p := spec.SitesTouched()
	// The window carries only back-trace traffic, so the session layer's
	// retransmitted copies (counted per leaf, like first sends) are
	// subtracted: the bound is on what the protocol sends, not on how
	// often the link resends it.
	delta := func(name string) int64 { return after.Get(name) - before.Get(name) }
	return WireBatchRow{
		Setting:   name,
		Sites:     p,
		InterSite: e,
		BackMsgs: delta("msg.BackCall") + delta("msg.BackReply") + delta("msg.Report") -
			delta(metrics.LinkRetransmits),
		Predicted: int64(2*e + p - 1),
	}, nil
}

// wireFullCollection fills in the physical-traffic half of a row: two
// interleaved garbage rings collected to stability, so sites emit several
// same-destination messages per step and batching has work to do.
func wireFullCollection(row *WireBatchRow, batch int) error {
	c := cluster.New(cluster.Options{
		NumSites: 4,
		Codec:    wire.Binary{},
		Batch:    batch,
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
	return nil
}

// WireBatchTable renders the batching rows.
func WireBatchTable(rows []WireBatchRow) *Table {
	t := &Table{
		Title: "C17b: link batching vs the 2E+P-1 bound (binary codec, ring)",
		Header: []string{"setting", "P(sites)", "E(refs)", "trace-msgs", "2E+P-1",
			"collected", "logical-total", "frames", "bytes"},
		Caption: "batched = cluster.Options{Batch: 8}, the session layer's LinkBatch, " +
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

// CheckWire enforces the CI gate for C17. With the gob fallback removed the
// codec gates are absolute rather than relative:
//
//   - the binary codec's frames must stay compact (the mix's gob frames ran
//     past 100 bytes/msg; binary sits near 30) and its round trip must stay
//     allocation-light;
//   - batching must leave the logical back-trace cost at exactly 2E+P−1 and
//     strictly reduce physical frames below the logical count, while the
//     unbatched run's frames match its logical count one-to-one.
func CheckWire(codecRows []WireCodecRow, batchRows []WireBatchRow) error {
	var binary *WireCodecRow
	for i := range codecRows {
		if codecRows[i].Codec == "binary" {
			binary = &codecRows[i]
		}
	}
	if binary == nil {
		return fmt.Errorf("check: wire codec rows missing binary")
	}
	if binary.MsgsPerSec <= 0 {
		return fmt.Errorf("check: binary codec measured no throughput")
	}
	if binary.BytesPerMsg > 64 {
		return fmt.Errorf("check: binary frames bloated to %.1f bytes/msg (want <= 64 on the protocol mix)",
			binary.BytesPerMsg)
	}
	if binary.AllocsPerOp > 16 {
		return fmt.Errorf("check: binary codec round trip allocates %.2f/op (want <= 16)",
			binary.AllocsPerOp)
	}
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
		case "batched":
			if r.Frames >= r.Logical {
				return fmt.Errorf("check: batching did not coalesce (frames %d >= logical %d)", r.Frames, r.Logical)
			}
		}
	}
	return nil
}
