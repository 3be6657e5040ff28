package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("msg.total", "total messages")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if same := r.Counter("msg.total", ""); same != c {
		t.Fatal("redeclaration returned a different counter")
	}
	g := r.Gauge("backinfo.peak", "peak pairs")
	g.Max(3)
	g.Max(1)
	g.Max(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge max = %d, want 7", got)
	}
	g.Set(2)
	g.Add(3)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	if v, ok := r.Value("msg.total"); !ok || v != 5 {
		t.Fatalf("Value(msg.total) = %d, %v", v, ok)
	}
	if _, ok := r.Value("nope"); ok {
		t.Fatal("Value found an undeclared name")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("redeclaring a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x", "")
}

func TestHistogramBucketsAndSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005) // bucket 0
	h.Observe(0.005)  // bucket 1
	h.Observe(0.05)   // bucket 2
	h.Observe(5)      // above all bounds: +Inf only
	h.ObserveDuration(2 * time.Millisecond)
	snap := r.Snapshot().Histograms["lat"]
	if snap.Count != 5 {
		t.Fatalf("count = %d, want 5", snap.Count)
	}
	// Cumulative: ≤1ms: 1, ≤10ms: 3, ≤100ms: 4.
	want := []int64{1, 3, 4}
	for i, w := range want {
		if snap.Buckets[i] != w {
			t.Fatalf("bucket[%d] = %d, want %d (all %v)", i, snap.Buckets[i], w, snap.Buckets)
		}
	}
	if snap.Sum < 5.057 || snap.Sum > 5.058 {
		t.Fatalf("sum = %g", snap.Sum)
	}
}

func TestSnapshotAndReset(t *testing.T) {
	r := NewRegistry()
	r.Counter("a", "").Add(2)
	r.Gauge("b", "").Set(9)
	r.Histogram("h", "", nil).Observe(0.5)
	s := r.Snapshot()
	if s.Get("a") != 2 || s.Get("b") != 9 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Histograms["h"].Count != 1 {
		t.Fatalf("histogram count = %d", s.Histograms["h"].Count)
	}
	r.Reset()
	s = r.Snapshot()
	if s.Get("a") != 0 || s.Get("b") != 0 || s.Histograms["h"].Count != 0 || s.Histograms["h"].Sum != 0 {
		t.Fatalf("after reset: %+v", s)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("msg.total", "total messages sent").Add(3)
	r.Gauge("mailbox.depth", "current inbox depth").Set(2)
	r.Histogram("backtrace.rtt_seconds", "back-trace round trip", []float64{0.01, 0.1}).Observe(0.05)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP msg_total total messages sent",
		"# TYPE msg_total counter",
		"msg_total 3",
		"# TYPE mailbox_depth gauge",
		"mailbox_depth 2",
		"# TYPE backtrace_rtt_seconds histogram",
		`backtrace_rtt_seconds_bucket{le="0.01"} 0`,
		`backtrace_rtt_seconds_bucket{le="0.1"} 1`,
		`backtrace_rtt_seconds_bucket{le="+Inf"} 1`,
		"backtrace_rtt_seconds_sum 0.05",
		"backtrace_rtt_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"msg.total":              "msg_total",
		"backtrace.rtt_seconds":  "backtrace_rtt_seconds",
		"9lives":                 "_9lives",
		"weird-name/with:colons": "weird_name_with:colons",
	} {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	// A scrape racing the writers must still see monotonic buckets: the
	// last bound's cumulative count never exceeds the +Inf count.
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if h, ok := r.Snapshot().Histograms["h"]; ok && h.Buckets[len(h.Buckets)-1] > h.Count {
				t.Errorf("bucket le=%g holds %d > count %d", h.Bounds[len(h.Bounds)-1], h.Buckets[len(h.Buckets)-1], h.Count)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("n", "").Inc()
				r.Gauge("m", "").Max(int64(j))
				r.Histogram("h", "", nil).Observe(0.001)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-scraped
	s := r.Snapshot()
	if s.Get("n") != 8000 {
		t.Fatalf("n = %d", s.Get("n"))
	}
	if s.Get("m") != 999 {
		t.Fatalf("m = %d", s.Get("m"))
	}
	if s.Histograms["h"].Count != 8000 {
		t.Fatalf("h count = %d", s.Histograms["h"].Count)
	}
}
