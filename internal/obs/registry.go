// Package obs is the collector's observability layer: the Observer stream
// of structured events and distributed trace spans correlated by TraceID
// across sites, a collector that assembles cross-site span trees and keeps
// the recent events, a typed metrics registry (counters, gauges, latency
// histograms) with Prometheus text-format exposition, and an HTTP debug
// handler.
//
// Instruments are declared once with a name and help string, reads and
// writes are lock-free atomics, and the same instrument set backs the
// in-process snapshot API (Snapshot), the metrics.Counters write seam, and
// the /metrics endpoint.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer instrument.
type Counter struct {
	name string
	help string
	v    atomic.Int64
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Add increments the counter by delta (delta must be non-negative; the
// registry does not enforce this).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instrument whose value can go up and down; it also supports
// high-water-mark updates (Max), which the harness uses for peaks.
type Gauge struct {
	name string
	help string
	v    atomic.Int64
}

// Name returns the gauge's registered name.
func (g *Gauge) Name() string { return g.name }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Max raises the gauge to v if v is larger.
func (g *Gauge) Max(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefaultLatencyBuckets are the histogram bucket upper bounds (seconds)
// used for the collector's latency instruments: 100µs up to 10s.
var DefaultLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram (values in seconds).
type Histogram struct {
	name    string
	help    string
	bounds  []float64 // ascending upper bounds; +Inf implicit
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// Name returns the histogram's registered name.
func (h *Histogram) Name() string { return h.name }

// Observe records one value (in seconds). It bumps count before the
// bucket, and snapshot reads the buckets before count, so a concurrent
// snapshot never shows a bucket above the +Inf count.
func (h *Histogram) Observe(seconds float64) {
	h.count.Add(1)
	i := sort.SearchFloat64s(h.bounds, seconds)
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	}
	for {
		old := h.sumBits.Load()
		sum := math.Float64frombits(old) + seconds
		if h.sumBits.CompareAndSwap(old, math.Float64bits(sum)) {
			return
		}
	}
}

// ObserveDuration records one duration.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values (seconds).
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot returns cumulative bucket counts (per Prometheus convention)
// plus count and sum.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:  h.bounds,
		Buckets: make([]int64, len(h.bounds)),
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		s.Buckets[i] = cum
	}
	s.Count = h.count.Load()
	s.Sum = h.Sum()
	return s
}

// HistogramSnapshot is a point-in-time copy of one histogram. Buckets are
// cumulative counts aligned with Bounds; observations above the last bound
// appear only in Count.
type HistogramSnapshot struct {
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"`
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
}

// Snapshot is a point-in-time copy of a whole registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Get returns the value of a named counter or gauge (zero if absent).
func (s Snapshot) Get(name string) int64 {
	if v, ok := s.Counters[name]; ok {
		return v
	}
	return s.Gauges[name]
}

// Registry holds declared instruments. Declaration (Counter, Gauge,
// Histogram) is get-or-create and idempotent; redeclaring a name as a
// different instrument kind panics, because that is a programming error the
// exposition format cannot represent. The zero value is not usable; create
// with NewRegistry.
type Registry struct {
	mu     sync.RWMutex
	order  []string // registration order, for stable exposition
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter declares (or fetches) a counter. A later declaration may fill in
// a help string an earlier one left empty.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counts[name]; ok {
		if c.help == "" {
			c.help = help
		}
		return c
	}
	r.mustBeFree(name, "counter")
	c := &Counter{name: name, help: help}
	r.counts[name] = c
	r.order = append(r.order, name)
	return c
}

// Gauge declares (or fetches) a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		if g.help == "" {
			g.help = help
		}
		return g
	}
	r.mustBeFree(name, "gauge")
	g := &Gauge{name: name, help: help}
	r.gauges[name] = g
	r.order = append(r.order, name)
	return g
}

// Histogram declares (or fetches) a histogram. buckets are ascending upper
// bounds in seconds; nil selects DefaultLatencyBuckets. Bucket layouts are
// fixed at first declaration.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		if h.help == "" {
			h.help = help
		}
		return h
	}
	r.mustBeFree(name, "histogram")
	if buckets == nil {
		buckets = DefaultLatencyBuckets
	}
	h := &Histogram{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), buckets...),
		counts: make([]atomic.Int64, len(buckets)),
	}
	r.hists[name] = h
	r.order = append(r.order, name)
	return h
}

func (r *Registry) mustBeFree(name, kind string) {
	if _, ok := r.counts[name]; ok {
		panic(fmt.Sprintf("obs: %q already declared as a counter, redeclared as %s", name, kind))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("obs: %q already declared as a gauge, redeclared as %s", name, kind))
	}
	if _, ok := r.hists[name]; ok {
		panic(fmt.Sprintf("obs: %q already declared as a histogram, redeclared as %s", name, kind))
	}
}

// Value returns the current value of a named counter or gauge without
// declaring it; ok reports whether the name exists.
func (r *Registry) Value(name string) (v int64, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if c, exists := r.counts[name]; exists {
		return c.Value(), true
	}
	if g, exists := r.gauges[name]; exists {
		return g.Value(), true
	}
	return 0, false
}

// Snapshot copies every instrument's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counts)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counts {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// Reset zeroes every instrument's value, keeping the declarations. The
// experiment harness uses this to isolate measurement windows.
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counts {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.hists {
		for i := range h.counts {
			h.counts[i].Store(0)
		}
		h.count.Store(0)
		h.sumBits.Store(0)
	}
}
