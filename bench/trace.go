package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"backtrace/internal/ids"
	"backtrace/internal/msg"
	"backtrace/internal/transport"
)

// The traced run records spans from the harness side only: around every
// call the harness makes into a site, and at a Network/Handler wrapper
// between each site and its network. Spans stay in memory and are written
// when the run ends.

// Span names.
const (
	spanRound      = "round"
	spanSnapshot   = "site.begin_local_trace"
	spanCommit     = "site.commit_local_trace"
	spanSend       = "transport.send"
	spanDeliver    = "site.deliver"
	spanMutatorOp  = "site.mutator_op"
	spanLink       = "load.link"
	spanCheckpoint = "site.checkpoint"
	spanRestore    = "site.restore"
)

// span is one recorded interval. Times are nanoseconds since the recorder
// started; Parent is the id of the harness call in progress on the same
// site when the span began (0 = none: the work was caused by a handler).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Site   uint32 `json:"site"`
	Peer   uint32 `json:"peer,omitempty"`
	Msg    string `json:"msg,omitempty"`
	Round  int32  `json:"round"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpansWritten caps the span file; the summary above the listing always
// covers every span.
const maxSpansWritten = 200000

// maxCaptured bounds the envelope sample kept for the codec replay.
const maxCaptured = 20000

type recorder struct {
	t0 time.Time
	// on gates span storage: it is true only inside the measured window.
	// The FIFO matcher keeps counting while it is off, so pairing never
	// slips on messages in flight when the window opens.
	on    atomic.Bool
	round atomic.Int32
	// current[site] is the span id of the harness call in progress on that
	// site. Sends happen under the site lock, which such a call holds, so
	// it is the best available cause for a send span.
	current [steppedSites + 1]atomic.Int32

	mu       sync.Mutex
	spans    []span
	match    fifoMatcher
	transit  []float64 // µs, matched Send → Deliver
	captured []msg.Envelope
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), match: fifoMatcher{}} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a harness-call span on a site and makes it the site's current
// cause; the returned function closes it.
func (r *recorder) begin(name string, site ids.SiteID) func() {
	if r == nil || !r.on.Load() {
		return func() {}
	}
	start := r.now()
	r.mu.Lock()
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Name: name, Site: uint32(site), Round: r.round.Load(), Start: start})
	r.mu.Unlock()
	prev := r.current[site].Swap(id)
	return func() {
		end := r.now()
		r.current[site].Store(prev)
		r.mu.Lock()
		r.spans[id-1].Parent = prev
		r.spans[id-1].End = end
		r.mu.Unlock()
	}
}

func (r *recorder) leaf(name string, site, peer ids.SiteID, m msg.Message, start, end int64) {
	on := r.on.Load()
	parent := int32(0)
	if name == spanSend {
		parent = r.current[site].Load()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch name {
	case spanSend:
		r.match.sent(site, peer, start)
		if on && len(r.captured) < maxCaptured {
			r.captured = append(r.captured, msg.Envelope{From: site, To: peer, M: m})
		}
	case spanDeliver:
		if sentAt, ok := r.match.delivered(peer, site); ok && on {
			r.transit = append(r.transit, float64(start-sentAt)/1e3)
		}
	}
	if on {
		r.spans = append(r.spans, span{ID: int32(len(r.spans) + 1), Parent: parent, Name: name,
			Site: uint32(site), Peer: uint32(peer), Msg: msg.Name(m), Round: r.round.Load(), Start: start, End: end})
	}
}

// wrap interposes the recorder between a site and its network.
func (r *recorder) wrap(inner transport.Network) transport.Network {
	t := &tracedNet{inner: inner, rec: r}
	if sn, ok := inner.(transport.SessionNetwork); ok {
		return &tracedSessionNet{tracedNet: t, session: sn}
	}
	return t
}

type tracedNet struct {
	inner transport.Network
	rec   *recorder
}

func (t *tracedNet) Register(site ids.SiteID, h transport.Handler) {
	t.inner.Register(site, transport.HandlerFunc(func(from ids.SiteID, m msg.Message) {
		start := t.rec.now()
		h.Deliver(from, m)
		t.rec.leaf(spanDeliver, site, from, m, start, t.rec.now())
	}))
}

func (t *tracedNet) Send(from, to ids.SiteID, m msg.Message) {
	start := t.rec.now()
	t.inner.Send(from, to, m)
	t.rec.leaf(spanSend, from, to, m, start, t.rec.now())
}

func (t *tracedNet) Close() { t.inner.Close() }

// tracedSessionNet keeps the session-layer surface visible through the
// wrapper, so checkpoints record the same incarnation traced or not.
type tracedSessionNet struct {
	*tracedNet
	session transport.SessionNetwork
}

func (t *tracedSessionNet) Incarnation(site ids.SiteID) uint64 { return t.session.Incarnation(site) }
func (t *tracedSessionNet) NotifyRestart(site ids.SiteID, inc uint64, peers []ids.SiteID) {
	t.session.NotifyRestart(site, inc, peers)
}

// fifoMatcher pairs the i'th send on a link with the i'th delivery on it.
// The session layer delivers exactly once in send order, so the pairing is
// exact; a delivery with no recorded send (sent before recording began)
// reports !ok.
type fifoMatcher map[[2]ids.SiteID][]int64

func (f fifoMatcher) sent(from, to ids.SiteID, at int64) {
	k := [2]ids.SiteID{from, to}
	f[k] = append(f[k], at)
}

func (f fifoMatcher) delivered(from, to ids.SiteID) (sentAt int64, ok bool) {
	k := [2]ids.SiteID{from, to}
	q := f[k]
	if len(q) == 0 {
		return 0, false
	}
	f[k] = q[1:]
	return q[0], true
}

// durations returns the durations (ns) of every finished span with the given
// name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for i := range r.spans {
		if s := &r.spans[i]; s.Name == name && s.End != 0 {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// writeFile dumps a per-name summary of every span and then the spans
// themselves (up to maxSpansWritten).
func (r *recorder) writeFile(path string, env map[string]any) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	type agg struct {
		Count   int     `json:"count"`
		TotalMs float64 `json:"total_ms"`
	}
	summary := map[string]*agg{}
	for i := range r.spans {
		s := &r.spans[i]
		a := summary[s.Name]
		if a == nil {
			a = &agg{}
			summary[s.Name] = a
		}
		a.Count++
		a.TotalMs += float64(s.End-s.Start) / 1e6
	}
	listed := r.spans
	if len(listed) > maxSpansWritten {
		listed = listed[:maxSpansWritten]
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(map[string]any{
		"env": env, "summary": summary,
		"spans_total": len(r.spans), "spans_listed": len(listed), "spans": listed,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("span file %s: %w", path, err)
	}
	return nil
}
