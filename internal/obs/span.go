package obs

import (
	"fmt"
	"time"

	"backtrace/internal/ids"
	"backtrace/internal/msg"
)

// Well-known instrument names the sites register. Dotted names are the
// canonical identifiers; the Prometheus endpoint exposes them with dots
// replaced by underscores (see PromName).
const (
	// MetricBackTraceRTT is the latency histogram from a back trace's
	// initiation to its completion at the initiator (seconds).
	MetricBackTraceRTT = "backtrace.rtt_seconds"
	// MetricLocalTraceDuration is the latency histogram of one local trace
	// from snapshot to committed (seconds).
	MetricLocalTraceDuration = "localtrace.duration_seconds"
	// MetricLocalTraceMark and MetricLocalTraceOutsets split a local
	// trace's off-lock computation (tracer.Stats.Duration) into the forward
	// mark and the outset pass that follows it (seconds).
	MetricLocalTraceMark    = "localtrace.mark_seconds"
	MetricLocalTraceOutsets = "localtrace.outsets_seconds"
	// MetricMailboxQueueDelay is the latency histogram of the time an
	// inbound message spends queued in a site mailbox before dispatch.
	MetricMailboxQueueDelay = "mailbox.queue_delay_seconds"
	// MetricMailboxDepth is a gauge of the current mailbox depth (last
	// enqueue/dequeue observation wins; peaks are under mailbox.depth.peak).
	MetricMailboxDepth = "mailbox.depth"
)

// SpanKind classifies a span.
type SpanKind int

// Span kinds.
const (
	// SpanBackTrace is the root span of one back trace, emitted by the
	// initiator when the trace completes; it carries the verdict and the
	// participant set.
	SpanBackTrace SpanKind = iota + 1
	// SpanParticipant covers one site's engagement in a back trace: from
	// the first activation frame (or handled call) to the completion of the
	// site's last frame. Hops counts the BackCall messages handled.
	SpanParticipant
	// SpanLocalTrace covers one local trace, snapshot to commit. Its
	// TraceID is zero: local traces are per-site, not cross-site.
	SpanLocalTrace
	// SpanReport marks the report phase landing at a participant.
	SpanReport
)

// String names the kind.
func (k SpanKind) String() string {
	switch k {
	case SpanBackTrace:
		return "backtrace"
	case SpanParticipant:
		return "participant"
	case SpanLocalTrace:
		return "local-trace"
	case SpanReport:
		return "report"
	default:
		return fmt.Sprintf("SpanKind(%d)", int(k))
	}
}

// MarshalText implements encoding.TextMarshaler so JSON dumps carry the
// symbolic kind.
func (k SpanKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Span is one completed span. Sites emit spans only when finished (both
// timestamps set), so observers never see half-open spans. Fields beyond
// Kind, Site, Start, and End are meaningful per kind.
type Span struct {
	// Trace correlates the span across sites; zero for local-trace spans.
	Trace ids.TraceID `json:"trace,omitempty"`
	// Site is the emitting site.
	Site ids.SiteID `json:"site"`
	// Kind classifies the span.
	Kind SpanKind `json:"kind"`
	// Start and End bound the span.
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Verdict is the trace outcome (backtrace and report spans).
	Verdict msg.Verdict `json:"verdict"`
	// Hops is the number of back-trace calls this site handled in the span
	// (participant spans).
	Hops int `json:"hops,omitempty"`
	// Participants is the set of sites the trace reached (backtrace spans).
	Participants []ids.SiteID `json:"participants,omitempty"`
	// Collected is the number of objects swept (local-trace spans).
	Collected int `json:"collected,omitempty"`
	// QueueWait is the cumulative time this trace's messages spent queued
	// in the site's mailbox during the span (participant and report spans).
	QueueWait time.Duration `json:"queue_wait,omitempty"`
}

// Duration returns End - Start.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// String renders the span compactly.
func (s Span) String() string {
	out := fmt.Sprintf("%s %s", s.Site, s.Kind)
	if !s.Trace.IsZero() {
		out += " " + s.Trace.String()
	}
	switch s.Kind {
	case SpanBackTrace:
		out += fmt.Sprintf(" %s participants=%d", s.Verdict, len(s.Participants))
	case SpanParticipant:
		out += fmt.Sprintf(" hops=%d", s.Hops)
	case SpanLocalTrace:
		out += fmt.Sprintf(" collected=%d", s.Collected)
	case SpanReport:
		out += " " + s.Verdict.String()
	}
	out += fmt.Sprintf(" %s", s.Duration().Round(time.Microsecond))
	return out
}

// Observer receives a site's observability stream: structured events and
// completed spans. Implementations must be safe for concurrent use and
// MUST NOT call back into the emitting Site or Cluster — callbacks run
// under the site lock.
type Observer interface {
	// OnEvent receives one structured collector event.
	OnEvent(e Event)
	// OnSpan receives one completed span.
	OnSpan(sp Span)
}

// multiObserver fans one stream out to several observers.
type multiObserver []Observer

func (m multiObserver) OnEvent(e Event) {
	for _, o := range m {
		o.OnEvent(e)
	}
}

func (m multiObserver) OnSpan(sp Span) {
	for _, o := range m {
		o.OnSpan(sp)
	}
}

// Tee combines observers into one; nils are dropped. It returns nil when
// every argument is nil, so the result can be stored directly in a config.
func Tee(obs ...Observer) Observer {
	var m multiObserver
	for _, o := range obs {
		if o != nil {
			m = append(m, o)
		}
	}
	switch len(m) {
	case 0:
		return nil
	case 1:
		return m[0]
	default:
		return m
	}
}
