package main

import (
	"math"
	"sort"

	"backtrace/internal/obs"
)

// quantile returns the nearest-rank p-quantile (0 < p <= 1) of values, or 0
// for an empty slice. It sorts a copy.
func quantile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

func median(values []float64) float64 { return quantile(values, 0.5) }

// tailSamples is how many samples must lie beyond a reported percentile.
const tailSamples = 10

// tailOK reports whether n samples support the p-quantile: at least
// tailSamples of them must lie beyond it.
func tailOK(n int, p float64) bool {
	return float64(n)*(1-p) >= tailSamples-1e-9 // 100 × (1 − 0.9) is 9.999… in floating point
}

// highestPercentile returns the highest of the usual tail percentiles that n
// samples support, or 0.5 when none does.
func highestPercentile(n int) float64 {
	for _, p := range []float64{0.999, 0.99, 0.95, 0.9, 0.75} {
		if tailOK(n, p) {
			return p
		}
	}
	return 0.5
}

func sum(values []float64) float64 {
	t := 0.0
	for _, v := range values {
		t += v
	}
	return t
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	return sum(values) / float64(len(values))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quartileSpread is (Q3 - Q1) / median with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method) — the
// driver's steadiness measure.
func quartileSpread(values []float64) (q1, med, q3, spread float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0, median(s), 0, 0
	}
	at := func(i int) float64 { // statistics.quantiles, method="exclusive"
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	q1, med, q3 = at(1), at(2), at(3)
	return q1, med, q3, ratio(q3-q1, math.Abs(med))
}

// regDelta is what a registry accumulated over a measured window: counter
// increases, gauge values at the end (peaks are reset at the start), and
// histogram bucket increases. Deltas of several windows add up.
type regDelta struct {
	counters map[string]int64
	gauges   map[string]int64
	hists    map[string]obs.HistogramSnapshot
}

func newRegDelta() *regDelta {
	return &regDelta{counters: map[string]int64{}, gauges: map[string]int64{}, hists: map[string]obs.HistogramSnapshot{}}
}

func (d *regDelta) addWindow(before, after obs.Snapshot) {
	for name, v := range after.Counters {
		d.counters[name] += v - before.Counters[name]
	}
	for name, v := range after.Gauges {
		d.gauges[name] = max(d.gauges[name], v)
	}
	for name, h := range after.Histograms {
		b := before.Histograms[name]
		acc, ok := d.hists[name]
		if !ok {
			acc = obs.HistogramSnapshot{Bounds: h.Bounds, Buckets: make([]int64, len(h.Buckets))}
		}
		for i := range h.Buckets {
			prev := int64(0)
			if i < len(b.Buckets) {
				prev = b.Buckets[i]
			}
			acc.Buckets[i] += h.Buckets[i] - prev
		}
		acc.Count += h.Count - b.Count
		acc.Sum += h.Sum - b.Sum
		d.hists[name] = acc
	}
}

func (d *regDelta) count(name string) float64 { return float64(d.counters[name]) }

// histQuantile interpolates the p-quantile (seconds) inside the cumulative
// buckets of a histogram delta; observations above the last bound report
// that bound.
func histQuantile(h obs.HistogramSnapshot, p float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	target := p * float64(h.Count)
	lower, below := 0.0, 0.0
	for i, cum := range h.Buckets {
		if float64(cum) >= target {
			in := float64(cum) - below
			if in <= 0 {
				return h.Bounds[i]
			}
			return lower + (h.Bounds[i]-lower)*(target-below)/in
		}
		lower, below = h.Bounds[i], float64(cum)
	}
	return h.Bounds[len(h.Bounds)-1]
}
