package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/msg"
	"backtrace/internal/wire"
)

// Redial/queue tuning for TCPNode's per-peer senders.
const (
	tcpRedialInitial = 5 * time.Millisecond
	tcpRedialMax     = 500 * time.Millisecond
	tcpDialTimeout   = time.Second
	tcpQueueCap      = 4096
	// tcpMaxFrame bounds a received frame's declared length. No protocol
	// message comes anywhere near it; a larger header means a corrupt or
	// hostile stream, and the connection is dropped rather than the memory
	// allocated.
	tcpMaxFrame = 1 << 24
)

// TCPNode is a Network implementation for one site running as its own OS
// process, exchanging codec-framed envelopes over TCP. Every node knows the
// listen address of every site (static membership, as in the paper's
// setting of a fixed object store spread over sites).
//
// On the wire each envelope is one length-prefixed frame: a 4-byte
// big-endian length followed by that many bytes of wire.Codec output. The
// receive path decodes with the same codec, which rejects a frame whose
// leading version byte it does not speak.
//
// Each peer gets a dedicated sender goroutine draining a bounded pending
// queue, so Send never blocks on the network. The sender dials lazily,
// evicts the connection on write failure and redials with exponential
// backoff, keeping the failed message at the front of the queue; dial and
// write failures are counted under metrics.TransportSendFail. Messages
// already written into a connection that later dies are ordinary message
// loss, which the protocol tolerates by timeout (or which the Reliable
// session layer repairs by retransmission). Each incoming connection is
// drained by its own goroutine, which invokes the handler inline so
// per-link FIFO order is preserved.
type TCPNode struct {
	self  ids.SiteID
	addrs map[ids.SiteID]string
	codec wire.Codec
	// obs and counters are fixed at construction, so they are read without
	// the lock.
	obs      Observer
	counters *metrics.Counters

	mu       sync.Mutex
	handler  Handler
	senders  map[ids.SiteID]*tcpSender
	accepted map[net.Conn]struct{}
	ln       net.Listener
	closed   bool

	done chan struct{}
	wg   sync.WaitGroup
}

var _ Network = (*TCPNode)(nil)

// TCPOptions configures a TCPNode beyond its address book.
type TCPOptions struct {
	// Observer, if non-nil, is called for every send attempt.
	Observer Observer
	// Codec frames outgoing envelopes and decodes incoming ones. Nil
	// selects wire.Binary.
	Codec wire.Codec
	// Counters, if non-nil, receives metrics.TransportSendFail and
	// wire.bytes.
	Counters *metrics.Counters
}

// NewTCPNode creates a node for site self that will listen on addrs[self]
// and send to the other addresses with the default (binary) codec. Call
// Register to install the handler, then Listen to start accepting.
func NewTCPNode(self ids.SiteID, addrs map[ids.SiteID]string, obs Observer) (*TCPNode, error) {
	return NewTCPNodeOpts(self, addrs, TCPOptions{Observer: obs})
}

// NewTCPNodeOpts creates a node for site self with explicit transport
// options.
func NewTCPNodeOpts(self ids.SiteID, addrs map[ids.SiteID]string, opts TCPOptions) (*TCPNode, error) {
	if _, ok := addrs[self]; !ok {
		return nil, fmt.Errorf("tcpnode: no listen address for self %v", self)
	}
	if opts.Codec == nil {
		opts.Codec = wire.Binary{}
	}
	copied := make(map[ids.SiteID]string, len(addrs))
	for k, v := range addrs {
		copied[k] = v
	}
	return &TCPNode{
		self:     self,
		addrs:    copied,
		codec:    opts.Codec,
		senders:  make(map[ids.SiteID]*tcpSender),
		accepted: make(map[net.Conn]struct{}),
		obs:      opts.Observer,
		counters: opts.Counters,
		done:     make(chan struct{}),
	}, nil
}

// Register implements Network. Only the node's own site may be registered.
func (t *TCPNode) Register(site ids.SiteID, h Handler) {
	if site != t.self {
		return
	}
	t.mu.Lock()
	t.handler = h
	t.mu.Unlock()
}

// Listen starts accepting connections on the node's address. It returns the
// bound address, which is useful when the configured address has port 0.
func (t *TCPNode) Listen() (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ln != nil {
		return t.ln.Addr().String(), nil
	}
	ln, err := net.Listen("tcp", t.addrs[t.self])
	if err != nil {
		return "", fmt.Errorf("tcpnode listen %v: %w", t.self, err)
	}
	t.ln = ln
	t.wg.Add(1)
	go t.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (t *TCPNode) acceptLoop(ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.accepted[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *TCPNode) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.accepted, conn)
		t.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	var header [4]byte
	var payload []byte // reused across frames; Decode never retains it
	for {
		if _, err := io.ReadFull(br, header[:]); err != nil {
			// EOF, a closed connection, or stream damage all end the
			// read loop; any messages lost with it are ordinary message
			// loss, which the protocol tolerates by timeout.
			return
		}
		n := binary.BigEndian.Uint32(header[:])
		if n == 0 || n > tcpMaxFrame {
			return // corrupt length header: drop the connection
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return
		}
		env, err := t.codec.Decode(payload)
		if err != nil {
			// A frame that parses as a length but not as a message means
			// the stream is damaged; resynchronizing is hopeless, so drop
			// the connection and let the sender redial.
			return
		}
		t.mu.Lock()
		h := t.handler
		t.mu.Unlock()
		if h != nil && env.To == t.self {
			h.Deliver(env.From, env.M)
		}
	}
}

// Send implements Network. The message is queued for the peer's sender
// goroutine; a full queue, an unknown site, or a spoofed source drops it
// (message loss, which the protocol tolerates by timeout). The Observer
// sees a successful send only once the message is actually written to a
// connection.
func (t *TCPNode) Send(from, to ids.SiteID, m msg.Message) {
	env := msg.Envelope{From: from, To: to, M: m}
	if from != t.self {
		t.observe(env, true)
		return
	}
	if to == t.self {
		// Loopback: deliver directly.
		t.mu.Lock()
		h := t.handler
		t.mu.Unlock()
		if h != nil {
			h.Deliver(from, m)
			t.observe(env, false)
		} else {
			t.observe(env, true)
		}
		return
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		t.observe(env, true)
		return
	}
	if _, ok := t.addrs[to]; !ok {
		t.mu.Unlock()
		t.observe(env, true)
		return
	}
	s := t.senders[to]
	if s == nil {
		s = newTCPSender(t, to)
		t.senders[to] = s
		t.wg.Add(1)
		go s.run()
	}
	t.mu.Unlock()
	if !s.enqueue(env) {
		t.observe(env, true)
	}
}

func (t *TCPNode) observe(env msg.Envelope, dropped bool) {
	if t.obs != nil {
		t.obs(env, dropped)
	}
}

func (t *TCPNode) countSendFail() {
	if t.counters != nil {
		t.counters.Inc(metrics.TransportSendFail)
	}
}

func (t *TCPNode) countBytes(n int) {
	if t.counters != nil {
		t.counters.Add(metrics.WireBytes, int64(n))
	}
}

// SetAddr updates the known address of a site (used when peers bind
// ephemeral ports and gossip their bound addresses out of band). The peer's
// sender picks the new address up at its next dial.
func (t *TCPNode) SetAddr(site ids.SiteID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addrs[site] = addr
}

// Close implements Network: it stops the listener, shuts down the per-peer
// senders (dropping whatever is still queued), closes connections, and
// waits for all goroutines to exit.
func (t *TCPNode) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	ln := t.ln
	senders := make([]*tcpSender, 0, len(t.senders))
	for _, s := range t.senders {
		senders = append(senders, s)
	}
	inbound := make([]net.Conn, 0, len(t.accepted))
	for c := range t.accepted {
		inbound = append(inbound, c)
	}
	t.mu.Unlock()

	close(t.done)
	if ln != nil {
		ln.Close()
	}
	for _, s := range senders {
		s.close()
	}
	for _, c := range inbound {
		c.Close()
	}
	t.wg.Wait()
}

// tcpSender owns the outgoing traffic toward one peer: a bounded FIFO
// queue, the current connection, and the redial backoff. A single goroutine
// (run) consumes the queue, so per-link send order is preserved.
type tcpSender struct {
	node *TCPNode
	to   ids.SiteID

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []msg.Envelope
	conn   net.Conn
	closed bool
}

func newTCPSender(node *TCPNode, to ids.SiteID) *tcpSender {
	s := &tcpSender{node: node, to: to}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// enqueue appends env to the pending queue; it reports false when the queue
// is full or the sender is closed.
func (s *tcpSender) enqueue(env msg.Envelope) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || len(s.queue) >= tcpQueueCap {
		return false
	}
	s.queue = append(s.queue, env)
	s.cond.Signal()
	return true
}

// close wakes the run loop and unblocks any in-progress encode by closing
// the live connection out from under it.
func (s *tcpSender) close() {
	s.mu.Lock()
	s.closed = true
	conn := s.conn
	s.conn = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

func (s *tcpSender) run() {
	defer s.node.wg.Done()
	backoff := tcpRedialInitial
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			rest := s.queue
			s.queue = nil
			conn := s.conn
			s.conn = nil
			s.mu.Unlock()
			if conn != nil {
				conn.Close()
			}
			for _, env := range rest {
				s.node.observe(env, true)
			}
			return
		}
		env := s.queue[0]
		conn := s.conn
		s.mu.Unlock()

		if conn == nil {
			c, err := s.dial()
			if err != nil {
				s.node.countSendFail()
				s.sleep(backoff)
				backoff *= 2
				if backoff > tcpRedialMax {
					backoff = tcpRedialMax
				}
				continue
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				c.Close()
				continue
			}
			s.conn = c
			s.mu.Unlock()
			conn = c
			backoff = tcpRedialInitial
		}

		// One frame per envelope: a 4-byte length header reserved up
		// front, the codec output behind it, written with a single
		// conn.Write so the frame is never interleaved.
		buf := wire.GetBuffer()
		buf = append(buf, 0, 0, 0, 0)
		frame, err := s.node.codec.Encode(&env, buf)
		if err != nil {
			// Encoding is deterministic, so retrying the same message can
			// never succeed: count the failure and drop it (ordinary
			// message loss to the protocol).
			s.node.countSendFail()
			s.mu.Lock()
			if len(s.queue) > 0 {
				s.queue = s.queue[1:]
			}
			s.mu.Unlock()
			s.node.observe(env, true)
			continue
		}
		binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-4))
		_, werr := conn.Write(frame)
		wire.PutBuffer(frame)
		if werr != nil {
			// Evict the broken connection and redial; env stays at the
			// front of the queue and is retried on the fresh connection.
			s.node.countSendFail()
			s.mu.Lock()
			if s.conn == conn {
				s.conn = nil
			}
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.node.countBytes(len(frame))
		// This goroutine is the only consumer, so the front is still env.
		s.mu.Lock()
		if len(s.queue) > 0 {
			s.queue = s.queue[1:]
		}
		s.mu.Unlock()
		s.node.observe(env, false)
	}
}

// dial connects to the peer's current address (SetAddr may have changed it
// since the last attempt).
func (s *tcpSender) dial() (net.Conn, error) {
	s.node.mu.Lock()
	addr, ok := s.node.addrs[s.to]
	s.node.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("tcpnode: unknown site %v", s.to)
	}
	return net.DialTimeout("tcp", addr, tcpDialTimeout)
}

// sleep waits for the backoff interval, returning early if the node closes.
func (s *tcpSender) sleep(d time.Duration) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-s.node.done:
	}
}
