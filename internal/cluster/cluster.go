// Package cluster assembles multiple sites into one simulated distributed
// object store, for tests, examples, and the experiment harness.
//
// A Cluster owns the in-memory network and the sites. In *stepped* mode
// (the default for tests) no background goroutines run: messages accumulate
// until the test delivers them, so the paper's race scenarios (Figures 5
// and 6) replay deterministically. In asynchronous mode the network
// delivers with configurable latency, jitter, and loss.
package cluster

import (
	"fmt"
	"sync"
	"time"

	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/obs"
	"backtrace/internal/oracle"
	"backtrace/internal/site"
	"backtrace/internal/transport"
	"backtrace/internal/wire"
)

// Options configures a cluster.
type Options struct {
	// NumSites is the number of sites (identifiers 1..NumSites).
	NumSites int
	// Async forces asynchronous delivery even with zero latency. Without
	// it, a cluster with no latency, jitter, loss, duplication or
	// reordering, no session layer and no mailboxes is stepped:
	// deterministic manual message delivery (see transport.Options.Stepped).
	Async bool
	// Latency, Jitter, DropProb, DupProb, ReorderProb, Seed configure the
	// network.
	Latency     time.Duration
	Jitter      time.Duration
	DropProb    float64
	DupProb     float64
	ReorderProb float64
	Seed        int64
	// Reliable interposes a transport.Reliable session layer between the
	// sites and the memnet, giving exactly-once in-order delivery over
	// whatever loss, duplication, and reordering the options above inject.
	// The session layer is the collector's only message batcher: each
	// link's messages travel in LinkBatch frames of up to 8, flushed every
	// millisecond. Per-type protocol counts (msg.BackCall, …) are unchanged
	// and wire.frames shrinks; msg.total also counts the session layer's
	// standalone LinkAck frames. Retransmission and flushing are
	// time-driven, so Reliable forces asynchronous mode.
	Reliable bool
	// Codec, if non-nil, round-trips every message through this wire
	// codec at the network boundary, so in-process runs exercise the same
	// serialization the TCP transport uses (frame bytes counted under
	// wire.bytes). Nil hands messages over in memory, the fast test path.
	Codec wire.Codec
	// Parallel runs collection rounds with one goroutine per site instead
	// of stepping sites serially. It forces asynchronous delivery and,
	// unless Site.InboxSize says otherwise, gives every site a mailbox of
	// DefaultInboxSize. Deterministic Figure 5/6 replays need the default
	// serial stepped mode.
	Parallel bool
	// Site is the configuration every site is built from; zero values take
	// the site defaults. New stamps each site's ID, the network and the
	// cluster-wide Counters on it, and tees Observer with the cluster's
	// span and event collector (see SiteConfig). Site.Clock also drives the
	// network and the session layer, and a positive Site.InboxSize forces
	// asynchronous delivery.
	Site site.Config
}

// Cluster is a set of sites joined by one network.
type Cluster struct {
	opts     Options
	net      *transport.Net
	rel      *transport.Reliable // non-nil when Options.Reliable
	sites    map[ids.SiteID]*site.Site
	order    []ids.SiteID
	counters *metrics.Counters
	spans    *obs.Collector
	stepped  bool
}

// DefaultInboxSize is the per-site mailbox capacity Parallel mode uses when
// Options.Site.InboxSize is zero.
const DefaultInboxSize = 256

// New builds a cluster with sites 1..NumSites.
func New(opts Options) *Cluster {
	if opts.NumSites <= 0 {
		opts.NumSites = 2
	}
	if opts.Parallel && opts.Site.InboxSize == 0 {
		opts.Site.InboxSize = DefaultInboxSize
	}
	// Retransmission timers and mailbox dispatchers need real delivery.
	stepped := !opts.Async && !opts.Reliable && !opts.Parallel && opts.Site.InboxSize <= 0 &&
		opts.Latency == 0 && opts.Jitter == 0 &&
		opts.DropProb == 0 && opts.DupProb == 0 && opts.ReorderProb == 0
	counters := &metrics.Counters{}
	net := transport.NewNet(transport.Options{
		Latency:     opts.Latency,
		Jitter:      opts.Jitter,
		DropProb:    opts.DropProb,
		DupProb:     opts.DupProb,
		ReorderProb: opts.ReorderProb,
		Seed:        opts.Seed,
		Stepped:     stepped,
		Clock:       opts.Site.Clock,
		Observer:    counters.ObserveMessage,
		Codec:       opts.Codec,
		Counters:    counters,
	})
	var network transport.Network = net
	var rel *transport.Reliable
	if opts.Reliable {
		rel = transport.NewReliable(net, transport.ReliableOptions{
			RetransmitInitial: 3 * time.Millisecond,
			Seed:              opts.Seed,
			Clock:             opts.Site.Clock,
			Counters:          counters,
		})
		network = rel
	}
	spans := obs.NewCollector(obs.CollectorOptions{})
	opts.Site.Network = network
	opts.Site.Counters = counters
	opts.Site.Observer = obs.Tee(spans, opts.Site.Observer)
	c := &Cluster{
		opts:     opts,
		net:      net,
		rel:      rel,
		sites:    make(map[ids.SiteID]*site.Site, opts.NumSites),
		counters: counters,
		spans:    spans,
		stepped:  stepped,
	}
	for i := 1; i <= opts.NumSites; i++ {
		id := ids.SiteID(i)
		c.sites[id] = site.New(c.SiteConfig(id))
		c.order = append(c.order, id)
	}
	return c
}

// SiteConfig returns the configuration New built site id from: the
// Options.Site template with the site's ID, the cluster's network and
// Counters, and the span-collecting Observer stamped on. Crash recovery
// restores a site from it, so the new incarnation runs with the same
// knobs and keeps reporting into the same registry and span collector.
func (c *Cluster) SiteConfig(id ids.SiteID) site.Config {
	cfg := c.opts.Site
	cfg.ID = id
	return cfg
}

// Close shuts the cluster down: first the site mailboxes (so a delivery
// worker blocked on a full inbox unblocks and the network can stop its
// workers), then the network (the session layer, when enabled, closes the
// memnet underneath it).
func (c *Cluster) Close() {
	for _, id := range c.order {
		c.sites[id].Close()
	}
	if c.rel != nil {
		c.rel.Close()
		return
	}
	c.net.Close()
}

// Site returns the site with the given identifier.
func (c *Cluster) Site(id ids.SiteID) *site.Site { return c.sites[id] }

// ReplaceSite swaps in a new Site object for an existing identifier — the
// crash-recovery path: the caller builds the replacement via site.Restore
// (which re-registers it on the network) and hands it to the cluster so
// Settle, audits, and rounds address the new incarnation. The old Site is
// Close()d and discarded.
func (c *Cluster) ReplaceSite(id ids.SiteID, s *site.Site) {
	if old, ok := c.sites[id]; ok && old != s {
		old.Close()
	}
	c.sites[id] = s
}

// Sites returns the sites in identifier order.
func (c *Cluster) Sites() []*site.Site {
	out := make([]*site.Site, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.sites[id])
	}
	return out
}

// Net exposes the underlying network for crash/partition/step control.
func (c *Cluster) Net() *transport.Net { return c.net }

// Metrics returns a point-in-time snapshot of every typed instrument in
// the cluster-wide registry.
func (c *Cluster) Metrics() obs.Snapshot { return c.counters.Registry().Snapshot() }

// Registry returns the cluster-wide typed metrics registry (shared by all
// sites, the network observer, and the Prometheus exposition).
func (c *Cluster) Registry() *obs.Registry { return c.counters.Registry() }

// Spans returns the cluster's built-in collector, which assembles the spans
// every site emits into per-trace trees and keeps the most recent events.
func (c *Cluster) Spans() *obs.Collector { return c.spans }

// Settle delivers all in-flight messages: in stepped mode it pumps the
// queue dry; in asynchronous mode it waits for the network to go quiet.
// With mailboxes it additionally waits for every site inbox to drain —
// dispatching may send fresh messages, so it loops until the network and
// all inboxes are simultaneously idle.
func (c *Cluster) Settle() {
	if c.stepped {
		c.net.DeliverAll()
		return
	}
	for {
		c.quiesceNet()
		if c.opts.Site.InboxSize <= 0 {
			return
		}
		for _, id := range c.order {
			if err := c.sites[id].AwaitInboxIdle(20 * time.Second); err != nil {
				panic(fmt.Sprintf("cluster settle: %v", err))
			}
		}
		c.quiesceNet()
		idle := true
		for _, id := range c.order {
			if c.sites[id].InboxDepth() > 0 {
				idle = false
				break
			}
		}
		if idle {
			return
		}
	}
}

// quiesceNet waits for the network (and, when enabled, the session layer)
// to go quiet.
func (c *Cluster) quiesceNet() {
	if err := c.net.Quiesce(30 * time.Second); err != nil {
		panic(fmt.Sprintf("cluster settle: %v", err))
	}
	if c.rel != nil {
		// Wait for every session window to drain (retransmission keeps the
		// memnet busy in pulses, so quiesce alone is not enough), then for
		// the trailing acks and deliveries to land.
		if err := c.rel.AwaitIdle(20 * time.Second); err != nil {
			panic(fmt.Sprintf("cluster settle: %v", err))
		}
		if err := c.net.Quiesce(30 * time.Second); err != nil {
			panic(fmt.Sprintf("cluster settle: %v", err))
		}
	}
}

// RunRound performs one collection round — a period in which every site
// completes at least one local trace (Section 3). In the default serial
// mode each site traces in identifier order with message delivery after
// each; in Parallel mode every site traces on its own goroutine and the
// cluster settles once at the end. Reports are returned in site order
// either way.
func (c *Cluster) RunRound() []site.TraceReport {
	if c.opts.Parallel {
		return c.runRoundParallel()
	}
	reports := make([]site.TraceReport, 0, len(c.order))
	for _, id := range c.order {
		reports = append(reports, c.sites[id].RunLocalTrace())
		c.Settle()
	}
	return reports
}

// runRoundParallel traces every site concurrently. The mailbox executors
// absorb the cross-site message traffic the overlapping commits generate,
// and Settle waits for network and inboxes together.
func (c *Cluster) runRoundParallel() []site.TraceReport {
	reports := make([]site.TraceReport, len(c.order))
	var wg sync.WaitGroup
	for i, id := range c.order {
		wg.Add(1)
		go func(i int, s *site.Site) {
			defer wg.Done()
			reports[i] = s.RunLocalTrace()
		}(i, c.sites[id])
	}
	wg.Wait()
	c.Settle()
	return reports
}

// RunRounds performs n rounds and returns the total objects collected.
func (c *Cluster) RunRounds(n int) int {
	collected := 0
	for i := 0; i < n; i++ {
		for _, rep := range c.RunRound() {
			collected += rep.Collected
		}
	}
	return collected
}

// CheckAllTimeouts invokes the back-trace timeout scan on every site.
func (c *Cluster) CheckAllTimeouts() {
	for _, id := range c.order {
		c.sites[id].CheckTimeouts()
	}
}

// TotalObjects sums heap sizes across sites.
func (c *Cluster) TotalObjects() int {
	n := 0
	for _, id := range c.order {
		n += c.sites[id].NumObjects()
	}
	return n
}

// --- building object graphs ------------------------------------------------

// Link makes object `from` (on its owning site) reference `target`,
// performing the full reference-passing protocol when target is remote:
// the owner of target sends the reference to from's site (transfer +
// insert barriers), the holder stores it into the object, and the
// temporary mutator variable is dropped. The cluster settles in between so
// protocol messages complete.
func (c *Cluster) Link(from, target ids.Ref) error {
	holder := c.sites[from.Site]
	if holder == nil {
		return fmt.Errorf("cluster: no site %v", from.Site)
	}
	if target.Site == from.Site {
		return holder.AddReference(from.Obj, target)
	}
	owner := c.sites[target.Site]
	if owner == nil {
		return fmt.Errorf("cluster: no site %v", target.Site)
	}
	if err := owner.SendRef(from.Site, target); err != nil {
		return err
	}
	c.Settle()
	if err := holder.AddReference(from.Obj, target); err != nil {
		return err
	}
	holder.DropAppRoot(target)
	c.Settle()
	return nil
}

// MustLink is Link that panics on error (test fixture construction).
func (c *Cluster) MustLink(from, target ids.Ref) {
	if err := c.Link(from, target); err != nil {
		panic(err)
	}
}

// BuildRing creates a garbage ring spanning every site: one object per
// site, each referencing the next site's object, with no root pointing at
// any of them. It returns the ring objects in site order.
func (c *Cluster) BuildRing() []ids.Ref {
	objs := make([]ids.Ref, len(c.order))
	for i, id := range c.order {
		objs[i] = c.sites[id].NewObject()
	}
	for i := range objs {
		c.MustLink(objs[i], objs[(i+1)%len(objs)])
	}
	return objs
}

// --- global audits ------------------------------------------------------------

// audits snapshots every site once.
func (c *Cluster) audits() map[ids.SiteID]site.Audit {
	audits := make(map[ids.SiteID]site.Audit, len(c.order))
	for _, id := range c.order {
		audits[id] = c.sites[id].AuditSnapshot()
	}
	return audits
}

// GlobalLive computes the set of objects reachable from any persistent or
// application root anywhere in the cluster, following references across
// sites. It is an omniscient auditor used to check safety (no live object
// is ever collected) and completeness (all garbage eventually is).
func (c *Cluster) GlobalLive() map[ids.Ref]struct{} {
	return globalLive(c.audits())
}

// GarbageCount returns the number of existing objects that are not
// globally reachable — what a perfect collector would reclaim.
func (c *Cluster) GarbageCount() int {
	audits := c.audits()
	return oracle.Garbage(audits, globalLive(audits))
}

// globalLive is what the roots of audits reach.
func globalLive(audits map[ids.SiteID]site.Audit) map[ids.Ref]struct{} {
	live, _ := oracle.Reach(audits, oracle.Roots(audits, true), nil)
	return live
}

// CollectUntilStable runs rounds (with back tracing if enabled) until the
// omniscient audit finds no remaining garbage or maxRounds is reached; it
// returns the number of rounds executed and the total collected. Note that
// several quiet rounds are normal while distance estimates grow toward the
// back threshold.
func (c *Cluster) CollectUntilStable(maxRounds int) (rounds, collected int) {
	for rounds < maxRounds && c.GarbageCount() > 0 {
		for _, rep := range c.RunRound() {
			collected += rep.Collected
		}
		rounds++
	}
	return rounds, collected
}

// InvariantViolations audits cross-site referential integrity (see
// oracle.Integrity). Call it only when the network is quiet and no messages
// were dropped.
func (c *Cluster) InvariantViolations() []string {
	return oracle.Integrity(c.audits())
}
