package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"backtrace/internal/ids"
)

// Tree is the assembled cross-site view of one back trace: the initiator's
// root span plus one participant span per site the trace touched (merged
// when a trace revisits a site), plus report-phase spans.
type Tree struct {
	Trace ids.TraceID `json:"trace"`
	// Root is the initiator's SpanBackTrace span; nil until the trace
	// completes (or forever, for a trace that never finished — an orphan).
	Root *Span `json:"root,omitempty"`
	// Participants are the per-site engagement spans, sorted by site.
	Participants []*Span `json:"participants,omitempty"`
	// Reports are the report-phase spans, sorted by site.
	Reports []*Span `json:"reports,omitempty"`
}

// Complete reports whether the tree has a finished root span and a
// finished participant span for every site the root lists.
func (t *Tree) Complete() bool {
	if t.Root == nil || t.Root.End.IsZero() {
		return false
	}
	bySite := make(map[ids.SiteID]*Span, len(t.Participants))
	for _, p := range t.Participants {
		bySite[p.Site] = p
	}
	for _, site := range t.Root.Participants {
		p, ok := bySite[site]
		if !ok || p.End.IsZero() {
			return false
		}
	}
	return true
}

// CollectorOptions parameterizes a Collector.
type CollectorOptions struct {
	// MaxTraces bounds the number of retained trace trees; the oldest tree
	// is evicted when the bound is hit. Defaults to 4096.
	MaxTraces int
	// MaxLocalSpans bounds the retained local-trace spans (a ring of the
	// most recent). Defaults to 1024.
	MaxLocalSpans int
}

// Collector assembles spans from every site into per-trace trees and keeps
// the most recent events. It implements Observer and is safe for concurrent
// use; it never calls back into a site, so it can be wired directly into
// SiteConfig/ClusterOptions.
type Collector struct {
	opts CollectorOptions

	mu      sync.Mutex
	trees   map[ids.TraceID]*Tree
	order   []ids.TraceID // insertion order, for eviction
	local   ring[Span]    // local-trace spans
	events  ring[Event]
	evicted int64
}

// MaxEvents is how many of the most recent events a Collector keeps.
const MaxEvents = 4096

// NewCollector creates a span collector.
func NewCollector(opts CollectorOptions) *Collector {
	if opts.MaxTraces <= 0 {
		opts.MaxTraces = 4096
	}
	if opts.MaxLocalSpans <= 0 {
		opts.MaxLocalSpans = 1024
	}
	return &Collector{
		opts:   opts,
		trees:  make(map[ids.TraceID]*Tree),
		local:  ring[Span]{max: opts.MaxLocalSpans},
		events: ring[Event]{max: MaxEvents},
	}
}

// ring keeps the most recent max values pushed into it, growing on demand
// up to max and counting the values it evicts.
type ring[T any] struct {
	buf     []T
	next    int // the slot the next push overwrites once buf is full
	max     int
	evicted int64
}

func (r *ring[T]) push(v T) {
	if len(r.buf) < r.max {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % r.max
	r.evicted++
}

// items returns a copy of the retained values, oldest first.
func (r *ring[T]) items() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

var _ Observer = (*Collector)(nil)

// OnEvent implements Observer: keep the event, numbered in arrival order,
// among the most recent MaxEvents.
func (c *Collector) OnEvent(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.Seq = uint64(len(c.events.buf)) + uint64(c.events.evicted) + 1
	c.events.push(e)
}

// OnSpan implements Observer: file the span into its trace's tree.
func (c *Collector) OnSpan(sp Span) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sp.Kind == SpanLocalTrace || sp.Trace.IsZero() {
		c.local.push(sp)
		return
	}
	tree := c.treeLocked(sp.Trace)
	switch sp.Kind {
	case SpanBackTrace:
		cp := sp
		tree.Root = &cp
	case SpanParticipant:
		// A trace can revisit a site (another branch arrives after the site
		// went quiet): merge into one engagement span per site.
		for _, p := range tree.Participants {
			if p.Site == sp.Site {
				if sp.Start.Before(p.Start) {
					p.Start = sp.Start
				}
				if sp.End.After(p.End) {
					p.End = sp.End
				}
				p.Hops += sp.Hops
				p.QueueWait += sp.QueueWait
				return
			}
		}
		cp := sp
		tree.Participants = append(tree.Participants, &cp)
		sort.Slice(tree.Participants, func(i, j int) bool {
			return tree.Participants[i].Site < tree.Participants[j].Site
		})
	case SpanReport:
		cp := sp
		tree.Reports = append(tree.Reports, &cp)
		sort.Slice(tree.Reports, func(i, j int) bool {
			return tree.Reports[i].Site < tree.Reports[j].Site
		})
	}
}

func (c *Collector) treeLocked(t ids.TraceID) *Tree {
	tree, ok := c.trees[t]
	if !ok {
		if len(c.order) >= c.opts.MaxTraces {
			oldest := c.order[0]
			c.order = c.order[1:]
			delete(c.trees, oldest)
			c.evicted++
		}
		tree = &Tree{Trace: t}
		c.trees[t] = tree
		c.order = append(c.order, t)
	}
	return tree
}

// Tree returns a deep copy of one trace's tree, or nil if unknown.
func (c *Collector) Tree(t ids.TraceID) *Tree {
	c.mu.Lock()
	defer c.mu.Unlock()
	tree, ok := c.trees[t]
	if !ok {
		return nil
	}
	return copyTree(tree)
}

// Trees returns deep copies of every retained tree, ordered by trace id.
func (c *Collector) Trees() []*Tree {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Tree, 0, len(c.trees))
	for _, tree := range c.trees {
		out = append(out, copyTree(tree))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Trace.Less(out[j].Trace) })
	return out
}

// OrphanTraceIDs returns the retained traces that have participant or
// report spans but no completed root span — the "orphans" the span
// completeness tests assert away.
func (c *Collector) OrphanTraceIDs() []ids.TraceID {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []ids.TraceID
	for t, tree := range c.trees {
		if tree.Root == nil || tree.Root.End.IsZero() {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// LocalTraceSpans returns the retained local-trace spans, oldest first.
func (c *Collector) LocalTraceSpans() []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.local.items()
}

// Events returns the retained events, oldest first, and how many older
// ones were evicted to the MaxEvents bound.
func (c *Collector) Events() (events []Event, evicted int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.events.items(), c.events.evicted
}

// Evicted returns how many trees were dropped to the MaxTraces bound.
func (c *Collector) Evicted() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicted
}

// WriteJSON dumps every retained tree, the local-trace spans and the
// retained events as one JSON document.
func (c *Collector) WriteJSON(w io.Writer) error {
	events, eventsEvicted := c.Events()
	doc := struct {
		Traces        []*Tree `json:"traces"`
		LocalTraces   []Span  `json:"local_traces"`
		Evicted       int64   `json:"evicted,omitempty"`
		Events        []Event `json:"events"`
		EventsEvicted int64   `json:"events_evicted,omitempty"`
	}{c.Trees(), c.LocalTraceSpans(), c.Evicted(), events, eventsEvicted}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// RenderTrees renders every tree as an indented text forest — the human
// view dgcsim's -trace-out writes.
func (c *Collector) RenderTrees() string {
	var b strings.Builder
	for _, tree := range c.Trees() {
		fmt.Fprintf(&b, "%s", tree.Trace)
		if tree.Root != nil {
			fmt.Fprintf(&b, " %s rtt=%s participants=%d",
				tree.Root.Verdict, tree.Root.Duration().Round(time.Microsecond), len(tree.Root.Participants))
		} else {
			b.WriteString(" (incomplete)")
		}
		b.WriteByte('\n')
		for _, p := range tree.Participants {
			fmt.Fprintf(&b, "  ├─ %s\n", p)
		}
		for _, r := range tree.Reports {
			fmt.Fprintf(&b, "  └─ %s\n", r)
		}
	}
	return b.String()
}

func copyTree(t *Tree) *Tree {
	out := &Tree{Trace: t.Trace}
	if t.Root != nil {
		cp := *t.Root
		out.Root = &cp
	}
	for _, p := range t.Participants {
		cp := *p
		out.Participants = append(out.Participants, &cp)
	}
	for _, r := range t.Reports {
		cp := *r
		out.Reports = append(out.Reports, &cp)
	}
	return out
}
