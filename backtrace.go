// Package backtrace is a distributed garbage collector that reclaims
// inter-site garbage cycles by back tracing, implementing Maheshwari &
// Liskov, "Collecting Distributed Garbage Cycles by Back Tracing"
// (PODC 1997).
//
// Each Site traces its own objects independently, treating incoming
// inter-site references as roots, and exchanges insert/update messages to
// maintain inter-site reference lists. That collects everything except
// garbage cycles that span sites. For those, the collector:
//
//  1. estimates, for every inter-site reference, the minimum number of
//     inter-site hops from any persistent root (the distance heuristic) —
//     cyclic garbage's estimate grows without bound, so references past a
//     suspicion threshold are suspects;
//  2. back-traces from a suspected outgoing reference, leaping between
//     outrefs and inrefs using reachability information (insets) computed
//     during local traces; a trace that never reaches a clean reference
//     has proven every inref it visited garbage, with locality: only the
//     sites containing the cycle participate, at a cost of two messages
//     per inter-site reference traversed plus one report per participant.
//
// Transfer and insert barriers plus the clean rule keep back traces safe
// against concurrent mutators and local traces.
//
// # Quick start
//
//	c := backtrace.NewCluster(backtrace.ClusterOptions{
//		NumSites: 3,
//		Site:     backtrace.SiteConfig{AutoBackTrace: true},
//	})
//	defer c.Close()
//
//	root := c.Site(1).NewRootObject()
//	a := c.Site(2).NewObject()
//	b := c.Site(3).NewObject()
//	c.MustLink(a, b) // cross-site cycle a <-> b, unreachable from root
//	c.MustLink(b, a)
//	_ = root
//
//	rounds, collected := c.CollectUntilStable(40)
//
// Sites can also be deployed as separate OS processes over TCP; see
// cmd/dgcnode and the transport package.
package backtrace

import (
	"net/http"

	"backtrace/internal/cluster"
	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/obs"
	"backtrace/internal/site"
	"backtrace/internal/tracer"
	"backtrace/internal/transport"
	"backtrace/internal/txn"
	"backtrace/internal/wire"
	"backtrace/internal/workload"
)

// Core identifier types.
type (
	// SiteID identifies a site.
	SiteID = ids.SiteID
	// ObjID identifies an object within its owning site.
	ObjID = ids.ObjID
	// Ref is a fully qualified object reference (site + object).
	Ref = ids.Ref
	// TraceID identifies a back trace.
	TraceID = ids.TraceID
)

// MakeRef builds a Ref from its parts.
func MakeRef(site SiteID, obj ObjID) Ref { return ids.MakeRef(site, obj) }

// Site is one node of the store: a heap, its inref/outref tables, a local
// tracer, and a back-tracing engine. See the site package for the full
// method set: mutator operations (NewObject, AddReference, SendRef,
// Traverse, application roots), collection (RunLocalTrace,
// TriggerBackTraces), and introspection.
type Site = site.Site

// SiteConfig configures a single site (for standalone deployment over a
// custom transport; clusters configure sites for you).
type SiteConfig = site.Config

// NewSite creates a standalone site registered on a transport.
func NewSite(cfg SiteConfig) *Site { return site.New(cfg) }

// TraceReport summarizes one committed local trace.
type TraceReport = site.TraceReport

// Cluster is a set of sites joined by an in-process network — the normal
// way to embed the collector in simulations, tests, and experiments.
type Cluster = cluster.Cluster

// ClusterOptions configures NewCluster: the network and cluster shape, plus
// the SiteConfig every site is built from (its Site field).
type ClusterOptions = cluster.Options

// NewCluster builds a cluster with sites 1..NumSites.
func NewCluster(opts ClusterOptions) *Cluster { return cluster.New(opts) }

// Outset-computation algorithm selection (Section 5 of the paper).
const (
	// AlgoBottomUp is the Section 5.2 single-pass algorithm (default).
	AlgoBottomUp = tracer.AlgoBottomUp
	// AlgoIndependent is the Section 5.1 per-inref retracing algorithm.
	AlgoIndependent = tracer.AlgoIndependent
)

// OutsetAlgorithm selects how insets/outsets are computed.
type OutsetAlgorithm = tracer.OutsetAlgorithm

// Counters is the thread-safe metrics sink sites and transports write to.
// Sites given the same Counters share one MetricsRegistry; read it through
// Cluster.Metrics / Site.Metrics.
type Counters = metrics.Counters

// --- telemetry API ---------------------------------------------------------
//
// The stable observability surface: wire an Observer into SiteConfig (the
// Site field of ClusterOptions, for a cluster) to receive structured events
// and completed spans, the one stream of what the collector did; read
// typed instruments through Cluster.Metrics / Site.Metrics; serve them with
// NewDebugHandler. The internal/metrics and internal/obs packages are
// implementation details — everything needed is re-exported here.

// Observer receives structured observability output: every event a site
// emits and every completed span (back-trace roots, per-site participant
// engagements, local traces, report phases). Implementations MUST NOT call
// back into the Site or Cluster — callbacks run under site locks. Combine
// several with TeeObservers.
type Observer = obs.Observer

// TeeObservers fans observability output out to several observers (nils
// are skipped).
func TeeObservers(os ...Observer) Observer { return obs.Tee(os...) }

// Span is one timed interval of collector activity, correlated across
// sites by TraceID.
type Span = obs.Span

// SpanKind discriminates Span variants.
type SpanKind = obs.SpanKind

// Span kinds.
const (
	// SpanBackTrace is the root span of one back trace, emitted by the
	// initiator when the verdict lands; it carries the participant set.
	SpanBackTrace = obs.SpanBackTrace
	// SpanParticipant covers one site's engagement in a back trace (frames
	// live at that site), with the number of BackCalls handled and the
	// mailbox queueing delay attributed to the trace.
	SpanParticipant = obs.SpanParticipant
	// SpanLocalTrace covers one local trace, begin through commit.
	SpanLocalTrace = obs.SpanLocalTrace
	// SpanReport covers a participant's report-phase processing.
	SpanReport = obs.SpanReport
)

// SpanCollector assembles the spans of a distributed back trace into one
// tree per TraceID and keeps the most recent events (Events). Every
// Cluster runs one internally (Cluster.Spans); standalone deployments can
// wire their own into SiteConfig.Observer.
type SpanCollector = obs.Collector

// SpanCollectorOptions bounds a SpanCollector's retention.
type SpanCollectorOptions = obs.CollectorOptions

// NewSpanCollector creates a span collector.
func NewSpanCollector(opts SpanCollectorOptions) *SpanCollector {
	return obs.NewCollector(opts)
}

// SpanTree is one assembled back trace: root span, per-site participant
// spans, and report spans.
type SpanTree = obs.Tree

// MetricsRegistry is the typed instrument registry: declared counters,
// gauges, and latency histograms, readable as a MetricsSnapshot and
// exposable in Prometheus text format.
type MetricsRegistry = obs.Registry

// MetricsSnapshot is a point-in-time copy of every instrument in a
// registry.
type MetricsSnapshot = obs.Snapshot

// NewMetricsRegistry creates an empty typed registry (clusters create one
// for you; see Cluster.Registry).
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewDebugHandler serves /metrics (Prometheus text format), /healthz, and
// /spans (JSON trace trees) for a registry and span collector; either may
// be nil. See cmd/dgcnode -debug-addr for the ready-made server.
func NewDebugHandler(reg *MetricsRegistry, spans *SpanCollector, health func() error) http.Handler {
	return obs.DebugHandler(reg, spans, health)
}

// Event is one structured observability event.
type Event = obs.Event

// EventKind discriminates events.
type EventKind = obs.EventKind

// Network is the transport abstraction connecting sites.
type Network = transport.Network

// NewMemNetwork builds an in-process network (see transport.Options for
// latency, jitter, loss, partitions, and deterministic stepped delivery).
func NewMemNetwork(opts transport.Options) *transport.Net { return transport.NewNet(opts) }

// NetworkOptions configures an in-process network.
type NetworkOptions = transport.Options

// NewTCPNode builds a TCP transport node for running a site as its own OS
// process, framing messages with the default binary wire codec.
func NewTCPNode(self SiteID, addrs map[SiteID]string, obs transport.Observer) (*transport.TCPNode, error) {
	return transport.NewTCPNode(self, addrs, obs)
}

// TCPOptions configures NewTCPNodeOpts (observer, wire codec, byte
// counters).
type TCPOptions = transport.TCPOptions

// NewTCPNodeOpts builds a TCP transport node with explicit options
// (observer, byte counters).
func NewTCPNodeOpts(self SiteID, addrs map[SiteID]string, opts TCPOptions) (*transport.TCPNode, error) {
	return transport.NewTCPNodeOpts(self, addrs, opts)
}

// WireCodec serializes message envelopes to self-describing frames. The
// binary codec is the only codec; the legacy gob fallback was removed and
// its version byte stays permanently reserved (see docs/WIRE.md).
type WireCodec = wire.Codec

// BinaryCodec is the binary wire codec. Set it as NetworkOptions.Codec to
// round-trip every in-memory message through the bytes a TCP link carries.
var BinaryCodec WireCodec = wire.Binary{}

// NewReliable wraps any network with the ack/retransmit session layer:
// exactly-once, per-link in-order delivery (the paper's relation R1) over
// lossy, duplicating, or reordering substrates, with crash-epoch link
// resets on site restart.
func NewReliable(inner Network, opts ReliableOptions) *transport.Reliable {
	return transport.NewReliable(inner, opts)
}

// ReliableOptions configures NewReliable.
type ReliableOptions = transport.ReliableOptions

// Workload specs and generators (shared by the cluster and the baseline
// collectors so comparisons run on identical graphs).
type (
	// WorkloadSpec is an abstract multi-site object graph.
	WorkloadSpec = workload.Spec
	// ObjSpec places one object of a workload.
	ObjSpec = workload.ObjSpec
)

// Workload generators.
var (
	// Ring builds an n-site garbage cycle.
	Ring = workload.Ring
	// RootedRing builds an n-site live cycle anchored at a root.
	RootedRing = workload.RootedRing
	// Chain builds an n-site chain, optionally rooted.
	Chain = workload.Chain
	// DenseCycle builds a many-object strongly connected cross-site
	// component.
	DenseCycle = workload.DenseCycle
	// RandomGraph builds a clustered random graph.
	RandomGraph = workload.RandomGraph
	// HypertextWeb builds the paper's motivating hypertext-documents
	// workload.
	HypertextWeb = workload.HypertextWeb
	// BuildWorkload instantiates a spec on a cluster.
	BuildWorkload = workload.Build
)

// RandomConfig parameterizes RandomGraph.
type RandomConfig = workload.RandomConfig

// HypertextConfig parameterizes HypertextWeb.
type HypertextConfig = workload.HypertextConfig

// Transactional client-caching mutator layer (the paper's Thor-style
// application model, Section 6.1.1): clients fetch objects into a cache,
// buffer reads and writes, and commit through the transfer/insert barriers.
type (
	// TxnClient is a caching client of the store.
	TxnClient = txn.Client
	// Txn is one transaction over a client's cache.
	Txn = txn.Tx
	// TxnObject is an object allocated inside a transaction.
	TxnObject = txn.NewObject
)

// NewTxnClient creates a transactional client over the given sites. Call
// SetSettle with the cluster's Settle to make commits synchronous.
func NewTxnClient(name string, sites map[SiteID]*Site) *TxnClient {
	return txn.NewClient(name, sites)
}

// TxnSites builds the site map NewTxnClient wants from a cluster.
func TxnSites(c *Cluster) map[SiteID]*Site {
	m := make(map[SiteID]*Site)
	for _, s := range c.Sites() {
		m[s.ID()] = s
	}
	return m
}
