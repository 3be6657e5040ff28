// Package transport provides the networking substrate that connects sites.
//
// Two implementations of the Network interface are provided:
//
//   - Net (memnet.go): an in-process network for simulation and testing. It
//     supports per-message latency and jitter, probabilistic message loss,
//     partitions, site crashes, and a deterministic *stepped* mode in which
//     messages accumulate until the test delivers them explicitly — the
//     mechanism used to replay the exact interleavings of the paper's
//     Figures 5 and 6.
//
//   - TCPNode (tcpnet.go): a real TCP transport exchanging length-prefixed
//     wire.Codec frames (the binary codec), for running sites as separate
//     OS processes (cmd/dgcnode), with per-peer pending queues and
//     reconnect-with-backoff.
//
// Both preserve FIFO delivery per (source, destination) link, matching the
// paper's in-order delivery assumption (relation R1 in the Section 6.4
// safety proof).
//
// Reliable (reliable.go) wraps either one in an ack/retransmit session
// layer: per-link sequence numbers, cumulative acks, a bounded in-flight
// window with exponential-backoff retransmission, receiver-side dedup and
// reorder buffering, and incarnation epochs that reset link sessions
// across site crashes. It upgrades a lossy, duplicating, or reordering
// substrate to the exactly-once in-order delivery the protocol assumes.
// With ReliableOptions.BatchMax set it also batches: messages to the same
// peer coalesce into one LinkBatch frame per flush tick, with the acks the
// receiver owes piggybacked on reverse-direction batches.
package transport

import (
	"backtrace/internal/ids"
	"backtrace/internal/msg"
)

// Handler receives messages delivered to a site. Deliver is invoked
// serially per destination site, so a handler observes each link's
// messages in send order (the protocol's R1 assumption). A handler may
// apply the message on the calling thread or merely enqueue it for its own
// dispatcher (the site mailbox executor does the latter); either way it
// must preserve the arrival order it was handed. Deliver may block briefly
// when the handler's queue is full — that backpressure stalls only the
// one destination's delivery worker.
type Handler interface {
	Deliver(from ids.SiteID, m msg.Message)
}

// PeerRestartHandler is implemented by handlers that keep per-peer state
// tied to the peer's incarnation. A session layer calls PeerRestarted once
// per new incarnation of a peer it learns of, before it opens a session to
// that incarnation: nothing the handler sends after the call returns can
// reach the dead one, and nothing sent before it can reach the new one.
type PeerRestartHandler interface {
	PeerRestarted(peer ids.SiteID)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from ids.SiteID, m msg.Message)

// Deliver implements Handler.
func (f HandlerFunc) Deliver(from ids.SiteID, m msg.Message) { f(from, m) }

var _ Handler = HandlerFunc(nil)

// Network is the interface sites use to exchange messages.
type Network interface {
	// Register installs the handler for a site. It must be called before
	// any message is sent to that site.
	Register(site ids.SiteID, h Handler)
	// Send transmits m from one site to another. Send never blocks on the
	// receiver; delivery is asynchronous. Sending to an unregistered,
	// crashed, or partitioned site silently drops the message (the
	// protocol tolerates loss by timeout, Section 4.6).
	Send(from, to ids.SiteID, m msg.Message)
	// Close shuts the network down and waits for delivery workers to stop.
	Close()
}

// Observer is an optional callback invoked for every send attempt; dropped
// reports whether the message was lost (crash, partition, or random drop).
// Metrics counters hook in here.
type Observer func(env msg.Envelope, dropped bool)
