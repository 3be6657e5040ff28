package transport

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"backtrace/internal/clock"
	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/msg"
	"backtrace/internal/wire"
)

// Options configures an in-memory network.
type Options struct {
	// Clock supplies timestamps for latency scheduling and quiesce
	// deadlines. Nil means the wall clock; the deterministic simulation
	// injects a virtual clock.
	Clock clock.Clock
	// Latency is the base one-way delivery delay. Zero means immediate.
	Latency time.Duration
	// Jitter adds a uniformly random extra delay in [0, Jitter) per
	// message. Delivery remains FIFO per destination.
	Jitter time.Duration
	// DropProb is the probability in [0, 1] that any given message is
	// lost. The decision is made at send time.
	DropProb float64
	// DupProb is the probability in [0, 1] that a message is delivered
	// twice (the duplicate follows the original in the destination's
	// queue). Stresses receiver-side deduplication in transport.Reliable.
	DupProb float64
	// ReorderProb is the probability in [0, 1] that a message is swapped
	// with the message queued immediately before it at the destination,
	// violating per-link FIFO. Stresses the reorder buffering in
	// transport.Reliable.
	ReorderProb float64
	// Seed seeds the random source used for jitter and drops, making a
	// lossy run reproducible. Zero selects a fixed default seed.
	Seed int64
	// Stepped, when true, disables background delivery entirely: sent
	// messages accumulate in a pending queue until the test delivers them
	// explicitly with DeliverNext, DeliverAll, or DeliverMatching. This is
	// how the paper's race figures are replayed deterministically.
	Stepped bool
	// Observer, if non-nil, is called for every send attempt.
	Observer Observer
	// Codec, if non-nil, passes every sent envelope through a full
	// encode/decode round trip at send time, so in-process runs exercise
	// the same wire format as the TCP transport: what a handler receives
	// is the decoded copy, never the sender's value. The round trip is a
	// pure function of the message, so stepped-mode determinism is
	// preserved. Frames that fail to encode or decode are dropped (and
	// reported to the Observer), like any other transmission loss.
	Codec wire.Codec
	// Counters, if non-nil, receives wire.bytes for every frame encoded by
	// Codec.
	Counters *metrics.Counters
}

// Net is an in-process Network connecting sites in one OS process.
//
// In the default (asynchronous) mode each destination site has a delivery
// worker goroutine that pops messages in send order, waits out the simulated
// latency, and invokes the site's handler. In stepped mode there are no
// workers and the test controls delivery.
type Net struct {
	opts Options
	clk  clock.Clock

	mu       sync.Mutex
	handlers map[ids.SiteID]Handler
	workers  map[ids.SiteID]*memWorker
	crashed  map[ids.SiteID]bool
	cut      map[[2]ids.SiteID]bool // symmetric partition pairs
	rng      *rand.Rand
	pending  []delivery // stepped mode only
	inflight int
	quiet    chan struct{} // non-nil while a Quiesce waits; closed at inflight==0
	closed   bool
}

var _ Network = (*Net)(nil)

type delivery struct {
	env     msg.Envelope
	ready   time.Time
	dropped bool
	swap    bool // reorder injection: swap with the previously queued message
}

// NewNet builds an in-memory network with the given options.
func NewNet(opts Options) *Net {
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	n := &Net{
		opts:     opts,
		clk:      clock.OrWall(opts.Clock),
		handlers: make(map[ids.SiteID]Handler),
		workers:  make(map[ids.SiteID]*memWorker),
		crashed:  make(map[ids.SiteID]bool),
		cut:      make(map[[2]ids.SiteID]bool),
		rng:      rand.New(rand.NewSource(seed)),
	}
	return n
}

// Register implements Network.
func (n *Net) Register(site ids.SiteID, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handlers[site] = h
	if !n.opts.Stepped {
		if _, ok := n.workers[site]; !ok {
			w := newMemWorker(n, site)
			n.workers[site] = w
			go w.run()
		}
	}
}

// AnnounceRestart tells every other registered handler that implements
// PeerRestartHandler that site came back as a new incarnation — the news a
// session layer carries in its LinkReset, delivered here synchronously
// because the in-memory network has none. The caller models the crash
// first: messages in flight to or from the dead incarnation must already
// be gone (DropMatching), or one could reach the new incarnation after its
// peers forgot what they had sent the old one.
func (n *Net) AnnounceRestart(site ids.SiteID) {
	n.mu.Lock()
	peers := make([]ids.SiteID, 0, len(n.handlers))
	for id := range n.handlers {
		if id != site {
			peers = append(peers, id)
		}
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	hs := make([]Handler, len(peers))
	for i, id := range peers {
		hs[i] = n.handlers[id]
	}
	n.mu.Unlock()
	for _, h := range hs {
		if ph, ok := h.(PeerRestartHandler); ok {
			ph.PeerRestarted(site)
		}
	}
}

func pairKey(a, b ids.SiteID) [2]ids.SiteID {
	if a > b {
		a, b = b, a
	}
	return [2]ids.SiteID{a, b}
}

// Send implements Network.
func (n *Net) Send(from, to ids.SiteID, m msg.Message) {
	env := msg.Envelope{From: from, To: to, M: m}

	if c := n.opts.Codec; c != nil {
		dec, err := n.roundTrip(c, &env)
		if err != nil {
			if n.opts.Observer != nil {
				n.opts.Observer(env, true)
			}
			return
		}
		env = dec
	}

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	dropped := n.crashed[from] || n.crashed[to] || n.cut[pairKey(from, to)]
	if !dropped && n.opts.DropProb > 0 && n.rng.Float64() < n.opts.DropProb {
		dropped = true
	}
	if _, ok := n.handlers[to]; !ok {
		dropped = true
	}
	obs := n.opts.Observer
	if dropped {
		n.mu.Unlock()
		if obs != nil {
			obs(env, true)
		}
		return
	}

	var extra time.Duration
	if n.opts.Jitter > 0 {
		extra = time.Duration(n.rng.Int63n(int64(n.opts.Jitter)))
	}
	dup := n.opts.DupProb > 0 && n.rng.Float64() < n.opts.DupProb
	swap := n.opts.ReorderProb > 0 && n.rng.Float64() < n.opts.ReorderProb
	d := delivery{env: env, ready: n.clk.Now().Add(n.opts.Latency + extra), swap: swap}
	n.inflight++
	if dup {
		n.inflight++
	}
	if n.opts.Stepped {
		n.insertPending(d)
		if dup {
			n.insertPending(delivery{env: env, ready: d.ready})
		}
		n.mu.Unlock()
	} else {
		w := n.workers[to]
		n.mu.Unlock()
		w.enqueue(d)
		if dup {
			w.enqueue(delivery{env: env, ready: d.ready})
		}
	}
	if obs != nil {
		obs(env, false)
	}
}

// roundTrip encodes env with the configured codec and decodes the frame
// back, counting the frame's size under wire.bytes. The decoded envelope
// shares no memory with the sender's message.
func (n *Net) roundTrip(c wire.Codec, env *msg.Envelope) (msg.Envelope, error) {
	buf := wire.GetBuffer()
	frame, err := c.Encode(env, buf)
	if err != nil {
		wire.PutBuffer(buf)
		return msg.Envelope{}, err
	}
	if n.opts.Counters != nil {
		n.opts.Counters.Add(metrics.WireBytes, int64(len(frame)))
	}
	dec, err := c.Decode(frame)
	wire.PutBuffer(frame)
	return dec, err
}

// insertPending appends d to the stepped-mode queue, swapping it before the
// previously queued message when reorder injection fired. Caller holds n.mu.
func (n *Net) insertPending(d delivery) {
	if d.swap && len(n.pending) > 0 {
		last := n.pending[len(n.pending)-1]
		n.pending[len(n.pending)-1] = d
		n.pending = append(n.pending, last)
		return
	}
	n.pending = append(n.pending, d)
}

// finishDelivery decrements the in-flight counter after a handler returns.
func (n *Net) finishDelivery() {
	n.mu.Lock()
	n.inflight--
	n.noteQuietLocked()
	n.mu.Unlock()
}

// noteQuietLocked wakes a pending Quiesce once nothing is in flight. The
// caller holds n.mu.
func (n *Net) noteQuietLocked() {
	if n.inflight == 0 && n.quiet != nil {
		close(n.quiet)
		n.quiet = nil
	}
}

// dispatch invokes the destination handler for one delivery and accounts
// for it. The caller must not hold n.mu.
func (n *Net) dispatch(d delivery) {
	n.mu.Lock()
	h := n.handlers[d.env.To]
	crashed := n.crashed[d.env.To]
	n.mu.Unlock()
	if h != nil && !crashed {
		h.Deliver(d.env.From, d.env.M)
	}
	n.finishDelivery()
}

// SetDropProb changes the message-loss probability at runtime (tests build
// their object graphs reliably, then inject loss for the collection phase).
func (n *Net) SetDropProb(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.opts.DropProb = p
}

// SetDupProb changes the duplication probability at runtime.
func (n *Net) SetDupProb(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.opts.DupProb = p
}

// SetReorderProb changes the reordering probability at runtime.
func (n *Net) SetReorderProb(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.opts.ReorderProb = p
}

// Crash marks a site as crashed: all messages to and from it are dropped
// (including ones already queued) until Restart is called. Crashing a site
// does not clear its registered handler.
func (n *Net) Crash(site ids.SiteID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed[site] = true
}

// Restart clears a site's crashed status.
func (n *Net) Restart(site ids.SiteID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.crashed, site)
}

// Partition cuts the bidirectional link between two sites.
func (n *Net) Partition(a, b ids.SiteID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut[pairKey(a, b)] = true
}

// Heal restores the link between two sites.
func (n *Net) Heal(a, b ids.SiteID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.cut, pairKey(a, b))
}

// Quiesce blocks until no messages are in flight or queued, or until the
// timeout elapses. It returns an error on timeout. Quiesce is only
// meaningful in asynchronous mode; in stepped mode use DeliverAll.
//
// The wait is event-driven: delivery completion signals a waiter channel
// (no polling), and the timeout comes from the injected Clock, so a virtual
// clock can expire it deterministically.
func (n *Net) Quiesce(timeout time.Duration) error {
	deadline := n.clk.Now().Add(timeout)
	n.mu.Lock()
	for n.inflight > 0 && !n.closed {
		if n.quiet == nil {
			n.quiet = make(chan struct{})
		}
		quiet := n.quiet
		in := n.inflight
		n.mu.Unlock()
		remaining := deadline.Sub(n.clk.Now())
		if remaining <= 0 {
			return fmt.Errorf("network quiesce: %d messages still in flight after %v", in, timeout)
		}
		timer := n.clk.NewTimer(remaining)
		select {
		case <-quiet:
		case <-timer.C:
		}
		timer.Stop()
		n.mu.Lock()
	}
	n.mu.Unlock()
	return nil
}

// Close implements Network. It stops delivery workers; queued messages are
// discarded.
func (n *Net) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.inflight = 0
	n.pending = nil
	n.noteQuietLocked()
	workers := make([]*memWorker, 0, len(n.workers))
	for _, w := range n.workers {
		workers = append(workers, w)
	}
	n.mu.Unlock()
	for _, w := range workers {
		w.stop()
	}
}

// --- stepped mode -----------------------------------------------------

// PendingCount returns the number of undelivered messages in stepped mode.
func (n *Net) PendingCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.pending)
}

// Pending returns a snapshot of the undelivered envelopes in send order.
func (n *Net) Pending() []msg.Envelope {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]msg.Envelope, len(n.pending))
	for i, d := range n.pending {
		out[i] = d.env
	}
	return out
}

// DeliverNext delivers the oldest pending message synchronously on the
// caller's goroutine. It reports whether a message was delivered.
func (n *Net) DeliverNext() bool {
	n.mu.Lock()
	if len(n.pending) == 0 {
		n.mu.Unlock()
		return false
	}
	d := n.pending[0]
	n.pending = n.pending[1:]
	n.mu.Unlock()
	n.dispatch(d)
	return true
}

// DeliverAll repeatedly delivers pending messages (including messages
// enqueued by the handlers it invokes) until none remain, and returns the
// number delivered. maxSteps guards against protocol livelock; DeliverAll
// panics if it is exceeded, which indicates a protocol bug.
func (n *Net) DeliverAll() int {
	const maxSteps = 1 << 20
	count := 0
	for n.DeliverNext() {
		count++
		if count > maxSteps {
			panic("transport: DeliverAll exceeded step budget; message livelock?")
		}
	}
	return count
}

// DeliverIndex delivers the i'th pending message (0-based, in send order)
// synchronously. It reports whether such a message existed. Randomized
// interleaving tests use it to scramble delivery order.
func (n *Net) DeliverIndex(i int) bool {
	n.mu.Lock()
	if i < 0 || i >= len(n.pending) {
		n.mu.Unlock()
		return false
	}
	d := n.pending[i]
	n.pending = append(n.pending[:i], n.pending[i+1:]...)
	n.mu.Unlock()
	n.dispatch(d)
	return true
}

// DeliverMatching delivers, in order, every pending message satisfying pred
// (messages enqueued during those deliveries are considered too). Messages
// not matching stay queued in order. It returns the number delivered.
func (n *Net) DeliverMatching(pred func(msg.Envelope) bool) int {
	count := 0
	for {
		n.mu.Lock()
		idx := -1
		for i, d := range n.pending {
			if pred(d.env) {
				idx = i
				break
			}
		}
		if idx < 0 {
			n.mu.Unlock()
			return count
		}
		d := n.pending[idx]
		n.pending = append(n.pending[:idx], n.pending[idx+1:]...)
		n.mu.Unlock()
		n.dispatch(d)
		count++
	}
}

// DropMatching discards every pending message satisfying pred and returns
// the number dropped. It simulates message loss at precise points.
func (n *Net) DropMatching(pred func(msg.Envelope) bool) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	kept := n.pending[:0]
	count := 0
	for _, d := range n.pending {
		if pred(d.env) {
			count++
			n.inflight--
			continue
		}
		kept = append(kept, d)
	}
	n.pending = kept
	n.noteQuietLocked()
	return count
}

// PendingLinks returns the distinct (from, to) pairs that currently have
// pending messages in stepped mode, sorted by (from, to). The simulation
// scheduler enumerates them to pick a link whose head to deliver, which
// explores every cross-link interleaving while preserving the per-link FIFO
// order the protocol assumes (R1).
func (n *Net) PendingLinks() [][2]ids.SiteID {
	n.mu.Lock()
	defer n.mu.Unlock()
	seen := make(map[[2]ids.SiteID]struct{})
	out := make([][2]ids.SiteID, 0, 8)
	for _, d := range n.pending {
		key := [2]ids.SiteID{d.env.From, d.env.To}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		out = append(out, key)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// linkHeadLocked returns the index of the oldest pending message on the
// (from, to) link, or -1. Caller holds n.mu.
func (n *Net) linkHeadLocked(from, to ids.SiteID) int {
	for i, d := range n.pending {
		if d.env.From == from && d.env.To == to {
			return i
		}
	}
	return -1
}

// DeliverLinkHead delivers the oldest pending message on the (from, to)
// link synchronously, preserving that link's FIFO order. It reports whether
// such a message existed.
func (n *Net) DeliverLinkHead(from, to ids.SiteID) bool {
	n.mu.Lock()
	i := n.linkHeadLocked(from, to)
	if i < 0 {
		n.mu.Unlock()
		return false
	}
	d := n.pending[i]
	n.pending = append(n.pending[:i], n.pending[i+1:]...)
	n.mu.Unlock()
	n.dispatch(d)
	return true
}

// DropLinkHead discards the oldest pending message on the (from, to) link —
// targeted loss injection for the simulation's fault schedules. It reports
// whether a message was dropped.
func (n *Net) DropLinkHead(from, to ids.SiteID) bool {
	n.mu.Lock()
	i := n.linkHeadLocked(from, to)
	if i < 0 {
		n.mu.Unlock()
		return false
	}
	env := n.pending[i].env
	n.pending = append(n.pending[:i], n.pending[i+1:]...)
	n.inflight--
	n.noteQuietLocked()
	obs := n.opts.Observer
	n.mu.Unlock()
	if obs != nil {
		// Count the injected loss like any other drop.
		obs(env, true)
	}
	return true
}

// DupLinkHead appends a duplicate of the oldest pending message on the
// (from, to) link to the back of the pending queue — duplication injection
// for the simulation's fault schedules. It reports whether a message was
// duplicated.
func (n *Net) DupLinkHead(from, to ids.SiteID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	i := n.linkHeadLocked(from, to)
	if i < 0 {
		return false
	}
	n.pending = append(n.pending, delivery{env: n.pending[i].env, ready: n.pending[i].ready})
	n.inflight++
	return true
}

// --- asynchronous delivery worker --------------------------------------

// memWorker delivers messages to a single destination site in FIFO order.
type memWorker struct {
	net  *Net
	site ids.SiteID

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []delivery
	halted bool
	done   chan struct{}
}

func newMemWorker(n *Net, site ids.SiteID) *memWorker {
	w := &memWorker{net: n, site: site, done: make(chan struct{})}
	w.cond = sync.NewCond(&w.mu)
	return w
}

func (w *memWorker) enqueue(d delivery) {
	w.mu.Lock()
	if w.halted {
		w.mu.Unlock()
		w.net.finishDelivery()
		return
	}
	if d.swap && len(w.queue) > 0 {
		last := w.queue[len(w.queue)-1]
		w.queue[len(w.queue)-1] = d
		w.queue = append(w.queue, last)
	} else {
		w.queue = append(w.queue, d)
	}
	w.cond.Signal()
	w.mu.Unlock()
}

func (w *memWorker) run() {
	defer close(w.done)
	for {
		w.mu.Lock()
		for len(w.queue) == 0 && !w.halted {
			w.cond.Wait()
		}
		if w.halted {
			// Drain remaining accounting so Quiesce does not hang.
			remaining := len(w.queue)
			w.queue = nil
			w.mu.Unlock()
			for i := 0; i < remaining; i++ {
				w.net.finishDelivery()
			}
			return
		}
		d := w.queue[0]
		w.queue = w.queue[1:]
		w.mu.Unlock()

		if wait := d.ready.Sub(w.net.clk.Now()); wait > 0 {
			w.net.clk.Sleep(wait)
		}
		w.net.dispatch(d)
	}
}

func (w *memWorker) stop() {
	w.mu.Lock()
	w.halted = true
	w.cond.Broadcast()
	w.mu.Unlock()
	<-w.done
}
