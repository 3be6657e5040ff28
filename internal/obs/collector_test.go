package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"backtrace/internal/ids"
	"backtrace/internal/msg"
)

func span(t ids.TraceID, site ids.SiteID, kind SpanKind) Span {
	now := time.Now()
	return Span{Trace: t, Site: site, Kind: kind, Start: now.Add(-time.Millisecond), End: now}
}

func TestCollectorAssemblesTree(t *testing.T) {
	c := NewCollector(CollectorOptions{})
	tid := ids.TraceID{Initiator: 2, Seq: 1}

	p1 := span(tid, 1, SpanParticipant)
	p1.Hops = 1
	c.OnSpan(p1)
	p2 := span(tid, 2, SpanParticipant)
	p2.Hops = 2
	c.OnSpan(p2)
	rep := span(tid, 1, SpanReport)
	rep.Verdict = msg.VerdictGarbage
	c.OnSpan(rep)
	root := span(tid, 2, SpanBackTrace)
	root.Verdict = msg.VerdictGarbage
	root.Participants = []ids.SiteID{1, 2}
	c.OnSpan(root)

	tree := c.Tree(tid)
	if tree == nil || tree.Root == nil {
		t.Fatalf("tree = %+v", tree)
	}
	if !tree.Complete() {
		t.Fatal("tree incomplete")
	}
	if len(tree.Participants) != 2 || tree.Participants[0].Site != 1 || tree.Participants[1].Site != 2 {
		t.Fatalf("participants = %+v", tree.Participants)
	}
	if len(tree.Reports) != 1 {
		t.Fatalf("reports = %+v", tree.Reports)
	}
	if got := c.OrphanTraceIDs(); len(got) != 0 {
		t.Fatalf("orphans = %v", got)
	}
	if out := c.RenderTrees(); !strings.Contains(out, tid.String()) {
		t.Fatalf("render missing trace id:\n%s", out)
	}
}

func TestCollectorMergesRevisits(t *testing.T) {
	c := NewCollector(CollectorOptions{})
	tid := ids.TraceID{Initiator: 1, Seq: 9}
	first := span(tid, 3, SpanParticipant)
	first.Hops = 1
	first.QueueWait = time.Millisecond
	c.OnSpan(first)
	second := span(tid, 3, SpanParticipant)
	second.Hops = 2
	second.End = second.End.Add(time.Second)
	c.OnSpan(second)

	tree := c.Tree(tid)
	if len(tree.Participants) != 1 {
		t.Fatalf("participants = %+v", tree.Participants)
	}
	p := tree.Participants[0]
	if p.Hops != 3 {
		t.Fatalf("hops = %d, want 3", p.Hops)
	}
	if !p.End.Equal(second.End) || !p.Start.Equal(first.Start) {
		t.Fatalf("merged bounds wrong: %+v", p)
	}
}

func TestCollectorOrphansAndEviction(t *testing.T) {
	c := NewCollector(CollectorOptions{MaxTraces: 2})
	t1 := ids.TraceID{Initiator: 1, Seq: 1}
	t2 := ids.TraceID{Initiator: 1, Seq: 2}
	t3 := ids.TraceID{Initiator: 1, Seq: 3}
	c.OnSpan(span(t1, 1, SpanParticipant))
	c.OnSpan(span(t2, 1, SpanParticipant))
	if got := c.OrphanTraceIDs(); len(got) != 2 {
		t.Fatalf("orphans = %v", got)
	}
	c.OnSpan(span(t3, 1, SpanParticipant)) // evicts t1
	if c.Evicted() != 1 {
		t.Fatalf("evicted = %d", c.Evicted())
	}
	if tree := c.Tree(t1); tree != nil {
		t.Fatal("evicted tree still present")
	}
}

func TestCollectorLocalTraceRing(t *testing.T) {
	c := NewCollector(CollectorOptions{MaxLocalSpans: 2})
	for i := 0; i < 3; i++ {
		sp := span(ids.NilTrace, 1, SpanLocalTrace)
		sp.Collected = i
		c.OnSpan(sp)
	}
	got := c.LocalTraceSpans()
	if len(got) != 2 || got[0].Collected != 1 || got[1].Collected != 2 {
		t.Fatalf("local spans = %+v", got)
	}
}

func TestTeeFansOut(t *testing.T) {
	a := NewCollector(CollectorOptions{})
	b := NewCollector(CollectorOptions{})
	o := Tee(nil, a, b)
	o.OnSpan(span(ids.TraceID{Initiator: 1, Seq: 1}, 1, SpanParticipant))
	o.OnEvent(Event{Kind: TraceStarted})
	if len(a.Trees()) != 1 || len(b.Trees()) != 1 {
		t.Fatal("tee did not fan out spans")
	}
	if ea, _ := a.Events(); len(ea) != 1 {
		t.Fatal("tee did not fan out events")
	}
	if Tee(nil, nil) != nil {
		t.Fatal("Tee of nils should be nil")
	}
	if Tee(a) != a {
		t.Fatal("Tee of one should be itself")
	}
}

func TestDebugHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("msg.total", "").Add(7)
	reg.Histogram(MetricBackTraceRTT, "rtt", nil).Observe(0.001)
	col := NewCollector(CollectorOptions{})
	tid := ids.TraceID{Initiator: 1, Seq: 1}
	root := span(tid, 1, SpanBackTrace)
	root.Participants = []ids.SiteID{1}
	col.OnSpan(root)
	col.OnSpan(span(tid, 1, SpanParticipant))
	col.OnEvent(Event{Site: 1, Kind: TraceCompleted, Trace: tid, N: 1})

	srv := httptest.NewServer(DebugHandler(reg, col, func() error { return nil }))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 64<<10)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, b.String()
	}

	if code, body := get("/metrics"); code != 200 ||
		!strings.Contains(body, "msg_total 7") ||
		!strings.Contains(body, "backtrace_rtt_seconds_count 1") {
		t.Fatalf("/metrics: %d\n%s", code, body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	if code, body := get("/spans"); code != 200 || !strings.Contains(body, `"traces"`) ||
		!strings.Contains(body, `"kind": "trace-completed"`) {
		t.Fatalf("/spans: %d\n%s", code, body)
	}
}
