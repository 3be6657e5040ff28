package backtrace_test

import (
	"testing"

	"backtrace/internal/core"
	"backtrace/internal/ids"
	"backtrace/internal/msg"
	"backtrace/internal/refs"
)

// BenchmarkEngineBackCall measures one site's back-tracing engine on a
// storm-like fan-out, with no network in between: a BackCall of 8 steps
// arrives from site 2; each step's outref has an inset of 4 inrefs, and
// each inref is held by the same 3 source sites, so the call fans out to
// one BackCall per source site carrying 32 steps each. Every source site
// answers Garbage, the call's BackReply goes back, and a Live report clears
// the visit marks. One op is that whole exchange; allocs/op is the
// engine's per-call garbage.
func BenchmarkEngineBackCall(b *testing.B) {
	const (
		self   = ids.SiteID(1)
		caller = ids.SiteID(2)
		steps  = 8
		inset  = 4
		dist   = 50 // a suspected distance: well past the threshold below
	)
	sources := []ids.SiteID{3, 4, 5}
	tbl := refs.NewTable(self, 1<<30) // back threshold out of reach: no triggers
	insets := make(map[ids.Ref][]ids.ObjID, steps)
	call := msg.BackCall{Steps: make([]msg.BackStep, steps)}
	for i := 0; i < steps; i++ {
		target := ids.MakeRef(caller, ids.ObjID(i+1))
		o, _ := tbl.EnsureOutref(target)
		o.Distance = dist
		o.Barrier = false
		objs := make([]ids.ObjID, inset)
		for j := range objs {
			obj := ids.ObjID(100 + i*inset + j)
			for _, src := range sources {
				tbl.AddSource(obj, src)
				tbl.SetSourceDistance(obj, src, dist)
			}
			objs[j] = obj
		}
		insets[target] = objs
		call.Steps[i] = msg.BackStep{Caller: uint64(i + 1), Outref: target.Obj}
	}

	// The source sites' answers are assembled in buffers reused across
	// iterations, so allocs/op counts only what the engine allocates.
	var calls []msg.BackCall
	var dests []ids.SiteID
	var replied int
	results := make(map[ids.SiteID][]msg.BackResult, len(sources))
	srcOnly := make(map[ids.SiteID][]ids.SiteID, len(sources))
	for _, src := range sources {
		srcOnly[src] = []ids.SiteID{src}
	}
	e := core.NewEngine(core.Config{
		Site:      self,
		Threshold: 3,
		Table:     tbl,
		Inset:     func(target ids.Ref) []ids.ObjID { return insets[target] },
		Send: func(to ids.SiteID, m msg.Message) {
			switch m := m.(type) {
			case msg.BackCall:
				calls = append(calls, m)
				dests = append(dests, to)
			case msg.BackReply:
				replied++
			}
		},
	})

	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		t := ids.TraceID{Initiator: caller, Seq: uint64(n + 1)}
		call.Trace = t
		calls, dests = calls[:0], dests[:0]
		e.HandleBackCall(caller, call)
		if len(calls) != len(sources) {
			b.Fatalf("fan-out sent %d calls, want %d", len(calls), len(sources))
		}
		for i, c := range calls {
			to := dests[i]
			res := results[to][:0]
			for _, s := range c.Steps {
				res = append(res, msg.BackResult{Caller: s.Caller, Result: msg.VerdictGarbage, Participants: srcOnly[to]})
			}
			results[to] = res
			e.HandleBackReply(to, msg.BackReply{Trace: t, Results: res})
		}
		e.HandleReport(caller, msg.Report{Trace: t, Outcome: msg.VerdictLive})
	}
	b.StopTimer()
	if replied != b.N || e.ActiveFrames() != 0 || e.PendingMarks() != 0 {
		b.Fatalf("replies %d of %d, %d frames and %d mark sets left", replied, b.N, e.ActiveFrames(), e.PendingMarks())
	}
}
