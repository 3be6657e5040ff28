package main

import (
	"fmt"
	"io"
	"time"

	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/msg"
	"backtrace/internal/obs"
	"backtrace/internal/site"
	"backtrace/internal/transport"
	"backtrace/internal/wire"
)

// This file is the only one that names site.Config and transport option
// fields: the two cluster shapes are constants of the benchmark, so a later
// PR that renames or removes a knob edits exactly one place.

// Shape constants. They are printed in every environment block.
const (
	shapeNode    = "node"    // what `dgcnode -demo -reliable -batch 8 -inbox 256 -max-inflight-traces 4 -trace-batch 8 -memoize-live` assembles
	shapeStepped = "stepped" // single-threaded stepped memnet, no mailbox

	nodeSites    = 4
	steppedSites = 8

	suspicionT  = 3 // T
	backT2      = 7 // T2
	bumpDelta   = 4 // δ
	batchMax    = 8
	inboxSize   = 256
	maxInflight = 4
	traceBatch  = 8

	settleTimeout = 5 * time.Second

	// counterAckFrames counts physical frames that carry nothing but a
	// session-layer ack (link.acks_sent also counts piggybacked ones).
	counterAckFrames = "bench.ack_frames"
)

func shapeConstants() map[string]any {
	return map[string]any{
		"node_sites": nodeSites, "stepped_sites": steppedSites,
		"T": suspicionT, "T2": backT2, "delta": bumpDelta,
		"batch_max": batchMax, "inbox": inboxSize,
		"max_inflight_traces": maxInflight, "trace_batch": traceBatch,
		"memoize_live": true, "incremental": true, "codec": wire.Binary{}.Name(),
	}
}

// cluster is one assembled shape: sites[i] has id i+1.
type cluster struct {
	sites []*site.Site
	reg   *obs.Registry
	step  *transport.Net        // stepped shape only
	rels  []*transport.Reliable // node shape only
	// settleFailures counts settle waits that hit settleTimeout.
	settleFailures int
}

func (c *cluster) site(id ids.SiteID) *site.Site { return c.sites[id-1] }

// collectorConfig is the collector configuration both shapes share.
func collectorConfig(id ids.SiteID, nw transport.Network, counters *metrics.Counters, inbox int) site.Config {
	return site.Config{
		ID:                 id,
		Network:            nw,
		SuspicionThreshold: suspicionT,
		BackThreshold:      backT2,
		ThresholdBump:      bumpDelta,
		AutoBackTrace:      true,
		Incremental:        true,
		InboxSize:          inbox,
		MaxInflightTraces:  maxInflight,
		TraceBatch:         traceBatch,
		MemoizeLive:        true,
		Counters:           counters,
	}
}

// newCluster assembles a shape. With rec non-nil every site talks to its
// network through a recording wrapper (the traced run).
func newCluster(shape string, rec *recorder) (*cluster, error) {
	reg := obs.NewRegistry()
	counters := metrics.NewCounters(reg)
	c := &cluster{reg: reg}
	wrap := func(nw transport.Network) transport.Network {
		if rec == nil {
			return nw
		}
		return rec.wrap(nw)
	}
	switch shape {
	case shapeStepped:
		// The codec round trip keeps wire.bytes an exact count on the
		// deterministic shape; it is a pure function of the message.
		c.step = transport.NewNet(transport.Options{
			Stepped:  true,
			Observer: counters.ObserveMessage,
			Codec:    wire.Binary{},
			Counters: counters,
		})
		nw := wrap(c.step)
		for i := 1; i <= steppedSites; i++ {
			c.sites = append(c.sites, site.New(collectorConfig(ids.SiteID(i), nw, counters, 0)))
		}
		return c, nil
	case shapeNode:
		frames := reg.Counter(metrics.WireFrames, "")
		ackFrames := reg.Counter(counterAckFrames, "")
		dropped := reg.Counter(metrics.MsgDropped, "")
		logical := newLogicalCounter(reg)
		addrs := make(map[ids.SiteID]string, nodeSites)
		for i := 1; i <= nodeSites; i++ {
			addrs[ids.SiteID(i)] = "127.0.0.1:0"
		}
		nodes := make([]*transport.TCPNode, 0, nodeSites)
		bound := make(map[ids.SiteID]string, nodeSites)
		for i := 1; i <= nodeSites; i++ {
			id := ids.SiteID(i)
			node, err := transport.NewTCPNodeOpts(id, addrs, transport.TCPOptions{
				// Physical frames are counted under TCP, logical messages
				// above the session layer, so acks and retransmissions
				// never inflate msg.total.
				Observer: func(env msg.Envelope, drop bool) {
					if drop {
						dropped.Inc()
						return
					}
					frames.Inc()
					if _, ack := env.M.(msg.LinkAck); ack {
						ackFrames.Inc()
					}
				},
				Codec:    wire.Binary{},
				Counters: counters,
			})
			if err != nil {
				c.close()
				return nil, err
			}
			nodes = append(nodes, node)
			rel := transport.NewReliable(node, transport.ReliableOptions{
				Seed:     int64(i),
				Counters: counters,
				BatchMax: batchMax,
				Observer: logical.observe,
			})
			c.rels = append(c.rels, rel)
			c.sites = append(c.sites, site.New(collectorConfig(id, wrap(rel), counters, inboxSize)))
			addr, err := node.Listen()
			if err != nil {
				c.close()
				return nil, err
			}
			bound[id] = addr
		}
		for _, node := range nodes {
			for id, addr := range bound {
				node.SetAddr(id, addr)
			}
		}
		return c, nil
	}
	return nil, fmt.Errorf("unknown shape %q", shape)
}

// close stops the mailboxes first (a delivery worker blocked on a full
// inbox would stall the network shutdown), then the networks.
func (c *cluster) close() {
	for _, s := range c.sites {
		s.Close()
	}
	for _, r := range c.rels {
		r.Close() // closes its TCP node too
	}
	if c.step != nil {
		c.step.Close()
	}
}

// settle ends a round: it waits until every link session has been
// acknowledged and every inbox is drained (node), or pumps the pending queue
// dry (stepped). Load goroutines keep sending, so "idle" is probed a bounded
// number of times rather than demanded simultaneously everywhere.
func (c *cluster) settle() {
	if c.step != nil {
		c.step.DeliverAll()
		return
	}
	for pass := 0; pass < 3; pass++ {
		for _, r := range c.rels {
			if err := r.AwaitIdle(settleTimeout); err != nil {
				c.settleFailures++
			}
		}
		busy := false
		for _, s := range c.sites {
			if err := s.AwaitInboxIdle(settleTimeout); err != nil {
				c.settleFailures++
			}
		}
		for _, r := range c.rels {
			if r.AwaitIdle(0) != nil {
				busy = true
			}
		}
		if !busy {
			return
		}
	}
}

// pump lets in-flight reference transfers make progress while a builder
// polls: delivery on the stepped shape, a short sleep on the node shape.
func (c *cluster) pump() {
	if c.step != nil {
		c.step.DeliverAll()
		return
	}
	time.Sleep(100 * time.Microsecond)
}

// newPrivateNet is a stepped network of the harness's own, for clones.
func newPrivateNet() *transport.Net { return transport.NewNet(transport.Options{Stepped: true}) }

// restoreClone rebuilds a checkpointed site, mailbox-less, on a private
// network so the clone never touches the live cluster.
func restoreClone(id ids.SiteID, r io.Reader, nw transport.Network, counters *metrics.Counters) (*site.Site, error) {
	return site.Restore(collectorConfig(id, nw, counters, 0), r)
}

// newLoopback assembles a two-endpoint copy of the node transport stack (TCP
// loopback under Reliable with the benchmark's batching) whose handlers only
// count, for the transport unit-cost replay.
func newLoopback(delivered func()) (send func(m msg.Message), wait func() error, closeFn func(), err error) {
	addrs := map[ids.SiteID]string{1: "127.0.0.1:0", 2: "127.0.0.1:0"}
	var nodes []*transport.TCPNode
	var rels []*transport.Reliable
	closeFn = func() {
		for _, r := range rels {
			r.Close()
		}
	}
	bound := map[ids.SiteID]string{}
	for i := 1; i <= 2; i++ {
		id := ids.SiteID(i)
		node, err := transport.NewTCPNodeOpts(id, addrs, transport.TCPOptions{Codec: wire.Binary{}})
		if err != nil {
			closeFn()
			return nil, nil, nil, err
		}
		nodes = append(nodes, node)
		rel := transport.NewReliable(node, transport.ReliableOptions{Seed: int64(i), BatchMax: batchMax})
		rels = append(rels, rel)
		rel.Register(id, transport.HandlerFunc(func(ids.SiteID, msg.Message) { delivered() }))
		addr, err := node.Listen()
		if err != nil {
			closeFn()
			return nil, nil, nil, err
		}
		bound[id] = addr
	}
	for _, node := range nodes {
		for id, addr := range bound {
			node.SetAddr(id, addr)
		}
	}
	send = func(m msg.Message) { rels[0].Send(1, 2, m) }
	wait = func() error { return rels[0].AwaitIdle(settleTimeout) }
	return send, wait, closeFn, nil
}

// logicalCounter counts protocol messages once per logical send, under the
// same names metrics.Counters.ObserveMessage uses.
type logicalCounter struct {
	total  *obs.Counter
	byType map[string]*obs.Counter
}

func newLogicalCounter(reg *obs.Registry) *logicalCounter {
	lc := &logicalCounter{total: reg.Counter(metrics.MsgTotal, ""), byType: map[string]*obs.Counter{}}
	for _, m := range []msg.Message{msg.RefTransfer{}, msg.Insert{}, msg.InsertAck{}, msg.ReleasePin{},
		msg.Update{}, msg.BackCall{}, msg.BackReply{}, msg.Report{}} {
		lc.byType[msg.Name(m)] = reg.Counter(metrics.MsgName(m), "")
	}
	return lc
}

func (lc *logicalCounter) observe(env msg.Envelope, dropped bool) {
	if dropped {
		return
	}
	msg.Leaves(env.M, func(leaf msg.Message) {
		lc.total.Inc()
		if c := lc.byType[msg.Name(leaf)]; c != nil {
			c.Inc()
		}
	})
}
