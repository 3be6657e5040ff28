package main

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"time"

	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/msg"
	"backtrace/internal/obs"
	"backtrace/internal/wire"
)

// After a traced window the harness replays what it captured, in isolation,
// to get the unit costs the ledger multiplies by the window's counts:
//
//   - the captured envelope mix through wire.Binary (encode, decode, bytes);
//   - the same mix through a two-endpoint copy of the node transport stack
//     (process CPU per message, codec included);
//   - a checkpoint-restored, mailbox-less clone of the whole cluster on a
//     private stepped network, through one full local trace per site and a
//     few planted structures, timing Handler.Deliver per message class.

type unitCosts struct {
	encodeNs, decodeNs, bytesPerMsg float64
	// stackCPUNs is process CPU per message through TCP + Reliable +
	// codec on loopback; transport cost is this minus the codec's.
	stackCPUNs float64
	// handlerNs is mean time inside Handler.Deliver per message class on
	// the clone.
	handlerNs map[string]float64
	// isolatedTraceMs is the busiest clone site's first (full) local trace.
	isolatedTraceMs float64
	ckptMs          float64
	ckptBytes       float64
	restoreMs       float64
}

// Message classes of the handler ledger.
const (
	classRefList   = "reflist"   // RefTransfer, Insert, InsertAck, ReleasePin, Update
	classBackTrace = "backtrace" // BackCall, BackReply, Report
)

func classOf(name string) string {
	switch name {
	case "BackCall", "BackReply", "Report":
		return classBackTrace
	}
	return classRefList
}

// replayMinWork is the least time a replay loop measures, so unit costs do
// not rest on a few microseconds.
const replayMinWork = 30 * time.Millisecond

func replayCodec(envs []msg.Envelope, u *unitCosts) error {
	if len(envs) == 0 {
		return fmt.Errorf("codec replay: no envelopes captured")
	}
	codec := wire.Binary{}
	frames := make([][]byte, len(envs))
	var encNs, encN, bytesTotal float64
	for start := time.Now(); time.Since(start) < replayMinWork; {
		buf := wire.GetBuffer()
		t0 := time.Now()
		for i := range envs {
			frame, err := codec.Encode(&envs[i], buf[:0])
			if err != nil {
				return fmt.Errorf("codec replay: %w", err)
			}
			buf = frame
			if frames[i] == nil {
				frames[i] = append([]byte(nil), frame...)
				bytesTotal += float64(len(frame))
			}
		}
		encNs += float64(time.Since(t0))
		encN += float64(len(envs))
		wire.PutBuffer(buf)
	}
	var decNs, decN float64
	for start := time.Now(); time.Since(start) < replayMinWork; {
		t0 := time.Now()
		for _, f := range frames {
			if _, err := codec.Decode(f); err != nil {
				return fmt.Errorf("codec replay: %w", err)
			}
		}
		decNs += float64(time.Since(t0))
		decN += float64(len(frames))
	}
	u.encodeNs = encNs / encN
	u.decodeNs = decNs / decN
	u.bytesPerMsg = bytesTotal / float64(len(envs))
	return nil
}

func replayStack(envs []msg.Envelope, u *unitCosts) error {
	var got atomic.Int64
	send, wait, closeFn, err := newLoopback(func() { got.Add(1) })
	if err != nil {
		return fmt.Errorf("transport replay: %w", err)
	}
	defer closeFn()
	// One message first, so dialing is not charged to the unit cost.
	send(envs[0].M)
	if err := wait(); err != nil {
		return fmt.Errorf("transport replay: %w", err)
	}
	got.Store(0)
	sent := int64(0)
	cpu0 := cpuTime()
	for start := time.Now(); time.Since(start) < replayMinWork; {
		for i := range envs {
			send(envs[i].M)
		}
		sent += int64(len(envs))
		if err := wait(); err != nil {
			return fmt.Errorf("transport replay: %w", err)
		}
	}
	for deadline := time.Now().Add(settleTimeout); got.Load() < sent; {
		if time.Now().After(deadline) {
			return fmt.Errorf("transport replay: %d of %d messages delivered", got.Load(), sent)
		}
		time.Sleep(100 * time.Microsecond)
	}
	u.stackCPUNs = float64(cpuTime()-cpu0) / float64(sent)
	return nil
}

// replayClone checkpoints every site of the drained cluster, restores the
// clones on a private stepped network behind a recorder of their own, and
// drives them through one full trace each and a few planted structures.
func replayClone(ld *load, seed int64, u *unitCosts) error {
	rec := newRecorder()
	rec.on.Store(true)
	reg := obs.NewRegistry()
	counters := metrics.NewCounters(reg)
	clone := &cluster{reg: reg, step: newPrivateNet()}
	defer clone.close()
	nw := rec.wrap(clone.step)
	// The cluster is drained and idle, so switching its recorder back on
	// adds exactly the checkpoint and restore spans to the span file.
	if ld.rec != nil {
		ld.rec.on.Store(true)
		defer ld.rec.on.Store(false)
	}
	var ckptNs, restoreNs time.Duration
	for i, s := range ld.c.sites {
		id := ids.SiteID(i + 1)
		var buf bytes.Buffer
		end := ld.rec.begin(spanCheckpoint, id)
		t0 := time.Now()
		err := s.WriteCheckpoint(&buf)
		d := time.Since(t0)
		end()
		if err != nil {
			return fmt.Errorf("clone replay: %w", err)
		}
		if d > ckptNs {
			ckptNs, u.ckptBytes = d, float64(buf.Len())
		}
		end = ld.rec.begin(spanRestore, id)
		t0 = time.Now()
		cs, err := restoreClone(id, &buf, nw, counters)
		d = time.Since(t0)
		end()
		if err != nil {
			return fmt.Errorf("clone replay: %w", err)
		}
		if d > restoreNs {
			restoreNs = d
		}
		clone.sites = append(clone.sites, cs)
	}
	u.ckptMs, u.restoreMs = float64(ckptNs)/1e6, float64(restoreNs)/1e6

	cl := newLoad(clone, ld.w, seed, rec)
	cl.live, cl.liveRefs = ld.live, ld.liveRefs
	cl.measuring.Store(true)
	cl.runRound(nil)
	for _, ns := range cl.t.computeNs {
		u.isolatedTraceMs = max(u.isolatedTraceMs, ns/1e6)
	}
	if err := cl.plant(min(ld.w.k, 8)); err != nil {
		return fmt.Errorf("clone replay: %w", err)
	}
	for out, _ := cl.outstandingCount(); out > 0; out, _ = cl.outstandingCount() {
		cl.runRound(nil)
	}
	sum, n := map[string]float64{}, map[string]float64{}
	for i := range rec.spans {
		s := &rec.spans[i]
		if s.Name == spanDeliver {
			c := classOf(s.Msg)
			sum[c] += float64(s.End - s.Start)
			n[c]++
		}
	}
	u.handlerNs = map[string]float64{}
	for _, c := range []string{classRefList, classBackTrace} {
		if n[c] > 0 {
			u.handlerNs[c] = sum[c] / n[c]
		}
	}
	return nil
}
