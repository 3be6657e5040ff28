package core

import (
	"reflect"
	"testing"
	"time"

	"backtrace/internal/ids"
	"backtrace/internal/msg"
	"backtrace/internal/obs"
)

// engineView is what a stale reply must leave untouched at site 1.
type engineView struct {
	done, queued, frames, marks int
	flagged                     bool
	metrics                     obs.Snapshot
}

func (r *rig) view() engineView {
	return engineView{
		done:    len(r.done),
		queued:  len(r.queue),
		frames:  r.engines[1].ActiveFrames(),
		marks:   r.engines[1].PendingMarks(),
		flagged: r.flaggedGarbage(1, 1),
		metrics: r.counters.Registry().Snapshot(),
	}
}

// TestEngineStaleReplyIgnored checks that a BackReply addressed to a frame
// that no longer exists — finished by a Live short-circuit, by the clean
// rule or by a call timeout, or a frame whose struct now serves another
// frame — changes nothing.
func TestEngineStaleReplyIgnored(t *testing.T) {
	// Site 1's suspected outref 2:5 has inset {1}; inref 1 is held by
	// sites 2 and 3, so the inref's frame waits on one call to each.
	setup := func(t *testing.T) (*rig, ids.TraceID, uint64) {
		t.Helper()
		r := newRig(t, 1, 2, 3)
		r.addSuspectInref(1, 1, 40, 2, 3)
		r.addOutref(1, ids.MakeRef(2, 5), 41, 1)
		tr, ok := r.engines[1].StartTrace(ids.MakeRef(2, 5))
		if !ok || len(r.queue) != 2 || r.engines[1].ActiveFrames() != 2 {
			t.Fatalf("setup: started %v, %d calls queued, %d frames", ok, len(r.queue), r.engines[1].ActiveFrames())
		}
		fid := r.queue[0].M.(msg.BackCall).Steps[0].Caller
		r.queue = nil
		return r, tr, fid
	}
	reply := func(r *rig, tr ids.TraceID, from ids.SiteID, fid uint64, v msg.Verdict) {
		r.engines[1].HandleBackReply(from, msg.BackReply{Trace: tr, Results: []msg.BackResult{
			{Caller: fid, Result: v, Participants: []ids.SiteID{from}},
		}})
	}
	// stale delivers late replies of both verdicts and fails on any effect.
	stale := func(t *testing.T, r *rig, tr ids.TraceID, fid uint64) {
		t.Helper()
		before := r.view()
		reply(r, tr, 3, fid, msg.VerdictGarbage)
		reply(r, tr, 3, fid, msg.VerdictLive)
		if after := r.view(); !reflect.DeepEqual(before, after) {
			t.Fatalf("stale reply changed the engine:\nbefore %+v\nafter  %+v", before, after)
		}
	}
	finishedLive := func(t *testing.T, r *rig) {
		t.Helper()
		if len(r.done) != 1 || r.done[0].outcome != msg.VerdictLive || r.engines[1].ActiveFrames() != 0 {
			t.Fatalf("completions %+v with %d frames, want one Live and none", r.done, r.engines[1].ActiveFrames())
		}
	}

	t.Run("live short-circuit", func(t *testing.T) {
		r, tr, fid := setup(t)
		reply(r, tr, 2, fid, msg.VerdictLive)
		finishedLive(t, r)
		stale(t, r, tr, fid)
	})
	t.Run("clean rule", func(t *testing.T) {
		r, tr, fid := setup(t)
		r.engines[1].NotifyCleanedInref(1)
		finishedLive(t, r)
		stale(t, r, tr, fid)
	})
	t.Run("call timeout", func(t *testing.T) {
		r, tr, fid := setup(t)
		r.now = r.now.Add(2 * time.Minute) // beyond CallTimeout
		r.engines[1].CheckTimeouts()
		finishedLive(t, r)
		stale(t, r, tr, fid)
	})
	t.Run("recycled frame", func(t *testing.T) {
		r, tr, fid := setup(t)
		old := r.engines[1].frames[fid]
		reply(r, tr, 2, fid, msg.VerdictLive)
		finishedLive(t, r)
		r.queue = nil // the Live report to site 2
		// A second trace through the same inref reuses the released frames.
		r.addOutref(1, ids.MakeRef(2, 6), 41, 1)
		if _, ok := r.engines[1].StartTrace(ids.MakeRef(2, 6)); !ok {
			t.Fatal("second trace did not start")
		}
		reused := false
		for seq, f := range r.engines[1].frames {
			if seq == fid {
				t.Fatalf("seq %d issued twice", seq)
			}
			reused = reused || f == old
		}
		if !reused {
			t.Fatal("the second trace did not reuse the first trace's frame")
		}
		stale(t, r, tr, fid)
	})
}
