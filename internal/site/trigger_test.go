package site

import (
	"testing"
	"time"

	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/msg"
	"backtrace/internal/obs"
	"backtrace/internal/transport"
)

// TestTriggerAdmission drives the one automatic trigger path — the
// round-robin scan, the admission cap with its distance-priority queue, and
// inset-overlap batching — on a single site. Site 2 holds local objects
// whose inrefs (from site 1, at the given distances) are their only roots,
// each referencing remote objects on site 1; one commit makes every such
// outref a suspect past its back threshold. Site 1 never answers (the
// stepped network is never pumped, so its BackCalls stay queued), and
// traces finish only by timing out in CheckTimeouts, one check at a time.
func TestTriggerAdmission(t *testing.T) {
	type holder struct {
		dist    int   // inref distance of the holding object
		targets []int // remote objects (on site 1) it references
	}
	cases := []struct {
		name        string
		maxInflight int
		batch       int
		holders     []holder
		check       func(t *testing.T, s *Site, rep TraceReport, started func() []ids.Ref)
	}{
		{
			name: "no cap, no batch",
			holders: []holder{
				{20, []int{1}}, {25, []int{2}}, {30, []int{3}},
			},
			check: func(t *testing.T, s *Site, rep TraceReport, started func() []ids.Ref) {
				if rep.BackTracesStarted != 3 || len(started()) != 3 {
					t.Fatalf("commit started %d traces (%d events), want one per suspect (3)",
						rep.BackTracesStarted, len(started()))
				}
				if got := s.cfg.Counters.Registry().Snapshot().Get(metrics.BackTraceDeferred); got != 0 {
					t.Fatalf("%s = %d with no cap, want 0", metrics.BackTraceDeferred, got)
				}
			},
		},
		{
			name:        "cap 1",
			maxInflight: 1,
			holders: []holder{
				{10, []int{1}}, {30, []int{2}}, {20, []int{3}}, {30, []int{4}}, {40, []int{5}},
			},
			check: func(t *testing.T, s *Site, rep TraceReport, started func() []ids.Ref) {
				if rep.BackTracesStarted != 1 {
					t.Fatalf("commit started %d traces under cap 1, want 1", rep.BackTracesStarted)
				}
				if got := s.cfg.Counters.Registry().Snapshot().Get(metrics.BackTraceDeferred); got != 4 {
					t.Fatalf("%s = %d, want the 4 suspects over the cap", metrics.BackTraceDeferred, got)
				}
				// Clean the farthest parked suspect: the drain must skip it.
				s.mu.Lock()
				o, _ := s.table.Outref(ids.MakeRef(1, 5))
				o.Barrier = true
				s.mu.Unlock()
				for i := 0; i < 6; i++ {
					s.CheckTimeouts()
				}
				// Farthest distance first, oldest first on ties (r2 was
				// parked before r4); r5 was cleaned while parked.
				want := []ids.Ref{ids.MakeRef(1, 1), ids.MakeRef(1, 2), ids.MakeRef(1, 4), ids.MakeRef(1, 3)}
				got := started()
				if len(got) != len(want) {
					t.Fatalf("started %v, want %v", got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("started %v, want %v", got, want)
					}
				}
				if peak := s.Metrics().Gauges[metrics.BackTraceInflight]; peak != 1 {
					t.Fatalf("in-flight peak %d, want the cap (1)", peak)
				}
			},
		},
		{
			name:  "batch 8",
			batch: 8,
			holders: []holder{
				{20, []int{1, 2, 3}}, {20, []int{4}},
			},
			check: func(t *testing.T, s *Site, rep TraceReport, started func() []ids.Ref) {
				// r1..r3 share their holder's inref, so they ride one
				// trace; r4's inset is disjoint and gets its own.
				if rep.BackTracesStarted != 2 || len(started()) != 2 {
					t.Fatalf("commit started %d traces, want 2 (one batch + one single)", rep.BackTracesStarted)
				}
				if peak := s.Metrics().Gauges[metrics.BackTraceBatchSize]; peak != 3 {
					t.Fatalf("batch size peak %d, want 3", peak)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := transport.NewNet(transport.Options{Stepped: true})
			t.Cleanup(net.Close)
			New(Config{ID: 1, Network: net}) // the silent peer
			col := obs.NewCollector(obs.CollectorOptions{})
			s := New(Config{
				ID: 2, Network: net,
				SuspicionThreshold: 3, BackThreshold: 7,
				AutoBackTrace:     true,
				CallTimeout:       time.Nanosecond, // expire on the next check
				ReportTimeout:     time.Nanosecond,
				MaxInflightTraces: tc.maxInflight,
				TraceBatch:        tc.batch,
				Observer:          col,
			})
			s.mu.Lock()
			for _, h := range tc.holders {
				x := s.heap.Alloc().Obj
				s.table.AddSource(x, 1)
				s.table.SetSourceDistance(x, 1, h.dist)
				for _, obj := range h.targets {
					r := ids.MakeRef(1, ids.ObjID(obj))
					if err := s.heap.AddField(x, r); err != nil {
						s.mu.Unlock()
						t.Fatal(err)
					}
					s.table.EnsureOutref(r)
				}
			}
			s.mu.Unlock()
			started := func() []ids.Ref {
				var out []ids.Ref
				events, _ := col.Events()
				for _, e := range events {
					if e.Kind == obs.TraceStarted {
						out = append(out, e.Ref)
					}
				}
				return out
			}
			rep := s.RunLocalTrace()
			tc.check(t, s, rep, started)
			// Every started trace is one distinct id on the wire.
			traces := map[ids.TraceID]bool{}
			for _, env := range net.Pending() {
				msg.Leaves(env.M, func(m msg.Message) {
					if c, ok := m.(msg.BackCall); ok {
						traces[c.Trace] = true
					}
				})
			}
			if len(traces) != len(started()) {
				t.Fatalf("%d distinct trace ids on the wire, want one per started trace (%d)", len(traces), len(started()))
			}
		})
	}
}
