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
)

// This file implements Reliable, a session layer that upgrades any Network
// to FIFO, at-most-once, retransmitted delivery.
//
// The paper assumes per-link in-order delivery (relation R1, Section 6.4)
// and tolerates outright loss only through the Section 4.6 timeout rule: a
// lost Call or Report makes the trace conservatively assume Live, costing a
// whole re-suspicion round per dropped packet. Reliable removes that cost
// on lossy substrates: every protocol message is wrapped in a LinkData
// frame carrying a per-link (source, destination) monotone sequence number
// and the sender's session epoch. Receivers acknowledge cumulatively,
// deduplicate, and buffer out-of-order frames so handlers see every message
// exactly once, in send order — R1 restored. Senders keep a bounded
// in-flight window and retransmit unacknowledged frames on exponential
// backoff with jitter.
//
// Site crashes are handled with incarnation epochs: a restarted site (see
// internal/site/persist.go) calls NotifyRestart, which bumps its epoch,
// wipes its link state, and announces a LinkReset to its peers. Peers
// abandon their old send sessions (frames in flight were addressed to the
// dead incarnation; dropping them is ordinary message loss, which the
// protocol tolerates by timeout) and open fresh sessions with a strictly
// larger epoch, so stale traffic is neither replayed into nor accepted
// from the new incarnation.

// ReliableOptions configures a Reliable session layer.
type ReliableOptions struct {
	// Window bounds the number of unacknowledged frames per link; sends
	// beyond it queue at the sender until acks open the window. Defaults
	// to 64.
	Window int
	// RetransmitInitial is the first ack deadline after a (re)transmission.
	// Defaults to 15ms. The retransmission scan runs every third of it, at
	// least 1ms apart.
	RetransmitInitial time.Duration
	// Seed seeds the jitter source, making retransmission schedules
	// reproducible. Zero selects a fixed default.
	Seed int64
	// Epoch is the initial incarnation for sites registered on this layer.
	// Defaults to 1. After a crash, pass the persisted incarnation + 1 via
	// NotifyRestart instead.
	Epoch uint64
	// BatchMax, when positive, turns on link-level batching: messages for
	// the same peer coalesce at the sender into one LinkBatch frame of up
	// to BatchMax payloads, flushed every FlushInterval (or immediately
	// when a batch fills). Acks the receiver owes are piggybacked on the
	// next data batch toward that peer instead of sent as standalone
	// LinkAck frames. Batching trades up to one FlushInterval of latency
	// for far fewer envelopes on the wire; logical message counts and
	// per-link FIFO order are unchanged.
	BatchMax int
	// FlushInterval is the batcher's flush cadence. Defaults to 1ms when
	// BatchMax is set; it should stay well below RetransmitInitial so
	// first transmissions never look like losses.
	FlushInterval time.Duration
	// Clock supplies retransmission deadlines and the scan cadence. Nil
	// means the wall clock.
	Clock clock.Clock
	// Counters, if non-nil, receives the link.* metrics.
	Counters *metrics.Counters
	// Observer, if non-nil, is called once per logical Send (not per
	// retransmission); dropped is true only when the layer is closed.
	Observer Observer
}

// retransmitMax caps a link's exponential backoff; retransmitJitter is the
// fraction of the backoff added as uniform random extra delay,
// de-synchronizing retransmission bursts across links.
const (
	retransmitMax    = 500 * time.Millisecond
	retransmitJitter = 0.25
)

func (o ReliableOptions) withDefaults() ReliableOptions {
	if o.Window <= 0 {
		o.Window = 64
	}
	if o.RetransmitInitial <= 0 {
		o.RetransmitInitial = 15 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.BatchMax > 0 && o.FlushInterval <= 0 {
		o.FlushInterval = time.Millisecond
	}
	if o.Epoch == 0 {
		o.Epoch = 1
	}
	return o
}

// SessionNetwork is the optional interface implemented by session-layer
// transports. Site checkpointing records the incarnation, and crash
// recovery announces the restart so peers reset their links cleanly.
type SessionNetwork interface {
	Network
	// Incarnation returns the site's current session epoch.
	Incarnation(site ids.SiteID) uint64
	// NotifyRestart installs a new incarnation for a restarted site (at
	// least one greater than any previous), wipes the site's link state,
	// and sends LinkReset to the given peers.
	NotifyRestart(site ids.SiteID, incarnation uint64, peers []ids.SiteID)
}

type linkKey struct {
	from, to ids.SiteID
}

// linkFrame is one unacknowledged message in a sender's window.
type linkFrame struct {
	seq uint64
	m   msg.Message
}

// sendLink is the sender half of one link session.
type sendLink struct {
	epoch    uint64
	nextSeq  uint64      // next sequence number to assign
	inflight []linkFrame // in the window, unacknowledged; ascending, contiguous seq
	unsent   int         // batching: trailing inflight frames not yet transmitted
	pending  []msg.Message
	backoff  time.Duration
	retryAt  time.Time
	peerInc  uint64 // the peer's incarnation as last seen in an ack (0 = unknown)
}

// recvLink is the receiver half of one link session.
type recvLink struct {
	epoch    uint64
	expected uint64 // next sequence number to deliver
	buffer   map[uint64]msg.Message
	// restarted marks the link a restarted receiver reopened above every
	// epoch the sender used toward its dead incarnation: a frame below it
	// is answered with a LinkReset, so a sender that missed the
	// announcement still learns of the restart. The first accepted frame
	// clears it.
	restarted bool
}

// Reliable wraps an inner Network with per-link ack/retransmit sessions.
// Register sites and Send messages exactly as with the inner network; the
// handlers installed via Register receive every message exactly once, in
// per-link send order, as long as both endpoints of a link go through a
// Reliable layer. Frames from peers that do not (bare protocol messages)
// are passed through unchanged.
//
// Retransmission is time-driven, so Reliable requires an asynchronously
// delivering inner network (it is not meaningful over a stepped memnet).
type Reliable struct {
	inner Network
	opts  ReliableOptions
	clk   clock.Clock

	mu          sync.Mutex
	incarnation map[ids.SiteID]uint64
	sends       map[linkKey]*sendLink
	recvs       map[linkKey]*recvLink
	handlers    map[ids.SiteID]Handler
	ackPending  map[linkKey]msg.LinkAck // batching: acks owed, awaiting piggyback or flush
	rng         *rand.Rand
	outstanding int           // frames in flight or queued across all links
	idle        chan struct{} // non-nil while an AwaitIdle waits; closed at zero
	closed      bool

	done chan struct{}
	wg   sync.WaitGroup
}

var (
	_ Network        = (*Reliable)(nil)
	_ SessionNetwork = (*Reliable)(nil)
)

// NewReliable wraps inner with a reliable session layer and starts its
// retransmission scanner. Close the returned layer, not the inner network
// (Close closes both).
func NewReliable(inner Network, opts ReliableOptions) *Reliable {
	opts = opts.withDefaults()
	r := &Reliable{
		inner:       inner,
		opts:        opts,
		clk:         clock.OrWall(opts.Clock),
		incarnation: make(map[ids.SiteID]uint64),
		sends:       make(map[linkKey]*sendLink),
		recvs:       make(map[linkKey]*recvLink),
		handlers:    make(map[ids.SiteID]Handler),
		ackPending:  make(map[linkKey]msg.LinkAck),
		rng:         rand.New(rand.NewSource(opts.Seed)),
		done:        make(chan struct{}),
	}
	r.wg.Add(1)
	go r.retransmitLoop()
	if r.batching() {
		r.wg.Add(1)
		go r.flushLoop()
	}
	return r
}

// batching reports whether link-level batching is enabled.
func (r *Reliable) batching() bool { return r.opts.BatchMax > 0 }

// Register implements Network: h receives the deduplicated, reordered
// payload stream for site.
func (r *Reliable) Register(site ids.SiteID, h Handler) {
	r.mu.Lock()
	r.handlers[site] = h
	if _, ok := r.incarnation[site]; !ok {
		r.incarnation[site] = r.opts.Epoch
	}
	r.mu.Unlock()
	r.inner.Register(site, HandlerFunc(func(from ids.SiteID, m msg.Message) {
		r.receive(site, from, m)
	}))
}

// Send implements Network. The message is assigned the link's next sequence
// number and retransmitted until acknowledged; if the in-flight window is
// full it queues at the sender. Send never blocks on the receiver.
//
// With batching enabled the message is not transmitted here: it joins the
// link's unsent tail and goes out in a LinkBatch at the next flush (or
// immediately once BatchMax messages have accumulated).
func (r *Reliable) Send(from, to ids.SiteID, m msg.Message) {
	env := msg.Envelope{From: from, To: to, M: m}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		r.observe(env, true)
		return
	}
	key := linkKey{from, to}
	sl := r.sendLinkLocked(from, to)
	r.outstanding++
	var out []msg.Message
	if len(sl.inflight) < r.opts.Window {
		seq := sl.nextSeq
		sl.nextSeq++
		sl.inflight = append(sl.inflight, linkFrame{seq: seq, m: m})
		if len(sl.inflight) == 1 {
			r.armLocked(sl, r.clk.Now())
		}
		if r.batching() {
			sl.unsent++
			if sl.unsent >= r.opts.BatchMax {
				out = r.flushLinkLocked(key, sl)
			}
		} else {
			out = append(out, msg.LinkData{Epoch: sl.epoch, Seq: seq, Payload: m})
		}
	} else {
		sl.pending = append(sl.pending, m)
	}
	r.mu.Unlock()
	r.observe(env, false)
	for _, f := range out {
		r.inner.Send(from, to, f)
	}
}

// Close implements Network: it stops the retransmission scanner and closes
// the inner network.
func (r *Reliable) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	if r.idle != nil {
		close(r.idle) // wake any AwaitIdle so it can observe the close
		r.idle = nil
	}
	r.mu.Unlock()
	close(r.done)
	r.wg.Wait()
	r.inner.Close()
}

// noteIdleLocked wakes a pending AwaitIdle once nothing is outstanding. The
// caller holds r.mu.
func (r *Reliable) noteIdleLocked() {
	if r.outstanding == 0 && r.idle != nil {
		close(r.idle)
		r.idle = nil
	}
}

// Incarnation implements SessionNetwork.
func (r *Reliable) Incarnation(site ids.SiteID) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if inc, ok := r.incarnation[site]; ok {
		return inc
	}
	return r.opts.Epoch
}

// NotifyRestart implements SessionNetwork: site came back from a crash with
// the given incarnation (bumped further if not strictly greater than the
// current one). All of the site's send sessions restart at the new epoch
// with their queues dropped, its receive state is forgotten, and every peer
// is sent a LinkReset so it abandons its stale session toward the site.
func (r *Reliable) NotifyRestart(site ids.SiteID, incarnation uint64, peers []ids.SiteID) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	if cur := r.incarnation[site]; incarnation <= cur {
		incarnation = cur + 1
	}
	r.incarnation[site] = incarnation
	for key, sl := range r.sends {
		if key.from != site {
			continue
		}
		r.resetSendLinkLocked(sl, incarnation)
	}
	// The new incarnation accepts nothing a peer sent toward the dead one:
	// each receive link reopens one epoch above the highest the sender has
	// used on it, so stale frames are rejected rather than delivered into
	// the new lifetime, and the peer's reset (which climbs past its own
	// epoch) opens a session the new incarnation accepts. Every peer with
	// a session toward the site is told, not only those its checkpoint
	// names.
	floor := make(map[ids.SiteID]uint64)
	for key, rl := range r.recvs {
		if key.to == site {
			floor[key.from] = rl.epoch
		}
	}
	notify := append([]ids.SiteID(nil), peers...)
	for key, sl := range r.sends {
		if key.to != site || key.from == site {
			continue
		}
		if _, ok := floor[key.from]; !ok {
			notify = append(notify, key.from)
		}
		floor[key.from] = max(floor[key.from], sl.epoch)
	}
	for from, e := range floor {
		r.recvs[linkKey{from, site}] = &recvLink{epoch: e + 1, expected: 1, buffer: make(map[uint64]msg.Message), restarted: true}
	}
	for key := range r.ackPending {
		// Acks the dead incarnation owed refer to receive state that no
		// longer exists.
		if key.from == site {
			delete(r.ackPending, key)
		}
	}
	r.count(metrics.LinkResets, 1)
	r.mu.Unlock()
	sort.Slice(notify, func(i, j int) bool { return notify[i] < notify[j] })
	for i, p := range notify {
		if p == site || (i > 0 && p == notify[i-1]) {
			continue
		}
		r.inner.Send(site, p, msg.LinkReset{Epoch: incarnation})
	}
}

// AwaitIdle blocks until every send link has no in-flight or queued frames
// (everything sent has been acknowledged), or the timeout elapses. The wait
// is event-driven — ack processing signals a waiter channel when the last
// outstanding frame drains — and the timeout comes from the injected Clock.
func (r *Reliable) AwaitIdle(timeout time.Duration) error {
	deadline := r.clk.Now().Add(timeout)
	r.mu.Lock()
	for r.outstanding > 0 && !r.closed {
		if r.idle == nil {
			r.idle = make(chan struct{})
		}
		idle := r.idle
		n := r.outstanding
		r.mu.Unlock()
		remaining := deadline.Sub(r.clk.Now())
		if remaining <= 0 {
			return fmt.Errorf("reliable: %d frames unacknowledged after %v", n, timeout)
		}
		timer := r.clk.NewTimer(remaining)
		select {
		case <-idle:
		case <-timer.C:
		}
		timer.Stop()
		r.mu.Lock()
	}
	r.mu.Unlock()
	return nil
}

// --- internals ----------------------------------------------------------

func (r *Reliable) observe(env msg.Envelope, dropped bool) {
	if r.opts.Observer != nil {
		r.opts.Observer(env, dropped)
	}
}

func (r *Reliable) count(name string, delta int64) {
	if r.opts.Counters != nil {
		r.opts.Counters.Add(name, delta)
	}
}

// gaugeMax raises a high-water gauge when counters are installed.
func (r *Reliable) gaugeMax(name string, v int64) {
	if r.opts.Counters != nil {
		r.opts.Counters.Max(name, v)
	}
}

// flushLinkLocked drains a link's unsent tail into LinkBatch frames of at
// most BatchMax payloads each, piggybacking any ack owed to the same peer
// onto the first one. The caller holds r.mu and sends the returned frames
// after unlocking.
func (r *Reliable) flushLinkLocked(key linkKey, sl *sendLink) []msg.Message {
	if sl.unsent == 0 {
		return nil
	}
	frames := sl.inflight[len(sl.inflight)-sl.unsent:]
	var out []msg.Message
	for start := 0; start < len(frames); start += r.opts.BatchMax {
		end := start + r.opts.BatchMax
		if end > len(frames) {
			end = len(frames)
		}
		chunk := frames[start:end]
		items := make([]msg.Message, len(chunk))
		for i, f := range chunk {
			items[i] = f.m
		}
		b := msg.LinkBatch{Epoch: sl.epoch, Base: chunk[0].seq, Items: items}
		if ack, owed := r.ackPending[key]; owed {
			b.AckEpoch, b.AckCum, b.AckInc = ack.Epoch, ack.Cum, ack.Inc
			delete(r.ackPending, key)
			r.count(metrics.LinkAcksSent, 1)
		}
		r.gaugeMax(metrics.WireBatchSize, int64(len(items)))
		out = append(out, b)
	}
	sl.unsent = 0
	r.count(metrics.WireFlushes, 1)
	return out
}

// flushAll transmits every link's unsent tail and every ack still owed with
// nothing to piggyback on. Links flush in deterministic (from, to) order so
// a virtual-clock run replays identically.
func (r *Reliable) flushAll() {
	type outFrame struct {
		key linkKey
		m   msg.Message
	}
	var out []outFrame
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	keys := make([]linkKey, 0, len(r.sends))
	for key := range r.sends {
		keys = append(keys, key)
	}
	for key := range r.ackPending {
		if _, dup := r.sends[key]; !dup {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	for _, key := range keys {
		if sl := r.sends[key]; sl != nil {
			for _, m := range r.flushLinkLocked(key, sl) {
				out = append(out, outFrame{key, m})
			}
		}
		if ack, owed := r.ackPending[key]; owed {
			// No data went toward this peer: the ack travels alone.
			delete(r.ackPending, key)
			r.count(metrics.LinkAcksSent, 1)
			out = append(out, outFrame{key, ack})
		}
	}
	r.mu.Unlock()
	for _, f := range out {
		r.inner.Send(f.key.from, f.key.to, f.m)
	}
}

// flushLoop drives the batcher at FlushInterval cadence.
func (r *Reliable) flushLoop() {
	defer r.wg.Done()
	for {
		select {
		case <-r.done:
			return
		case <-r.clk.NewTimer(r.opts.FlushInterval).C:
		}
		r.flushAll()
	}
}

// sendLinkLocked returns (creating if needed) the send session for a link.
func (r *Reliable) sendLinkLocked(from, to ids.SiteID) *sendLink {
	key := linkKey{from, to}
	sl := r.sends[key]
	if sl == nil {
		epoch := r.opts.Epoch
		if inc, ok := r.incarnation[from]; ok {
			epoch = inc
		}
		sl = &sendLink{epoch: epoch, nextSeq: 1}
		r.sends[key] = sl
	}
	return sl
}

// resetSendLinkLocked opens a fresh session at epoch, dropping anything in
// flight or queued (addressed to a dead incarnation: ordinary loss).
func (r *Reliable) resetSendLinkLocked(sl *sendLink, epoch uint64) {
	if n := len(sl.inflight) + len(sl.pending); n > 0 {
		r.count(metrics.LinkResetDropped, int64(n))
		r.outstanding -= n
		r.noteIdleLocked()
	}
	if epoch <= sl.epoch {
		epoch = sl.epoch + 1
	}
	sl.epoch = epoch
	sl.nextSeq = 1
	sl.inflight = nil
	sl.unsent = 0
	sl.pending = nil
}

// armLocked starts a fresh backoff window for a link's oldest unacked frame.
func (r *Reliable) armLocked(sl *sendLink, now time.Time) {
	sl.backoff = r.opts.RetransmitInitial
	sl.retryAt = now.Add(r.jitteredLocked(sl.backoff))
}

func (r *Reliable) jitteredLocked(d time.Duration) time.Duration {
	return d + time.Duration(retransmitJitter*r.rng.Float64()*float64(d))
}

// receive demultiplexes one frame arriving at self's inner handler.
func (r *Reliable) receive(self, from ids.SiteID, m msg.Message) {
	switch f := m.(type) {
	case msg.LinkData:
		r.receiveData(self, from, f)
	case msg.LinkBatch:
		r.receiveBatch(self, from, f)
	case msg.LinkAck:
		r.receiveAck(self, from, f)
	case msg.LinkReset:
		r.receiveReset(self, from, f)
	default:
		// A peer not running the session layer: pass through unchanged.
		r.mu.Lock()
		h := r.handlers[self]
		r.mu.Unlock()
		if h != nil {
			h.Deliver(from, m)
		}
	}
}

// receiveData runs the receiver side of the session: epoch checks, dedup,
// reorder buffering, in-order delivery, and a cumulative ack. The inner
// network invokes handlers serially per link, so per-link state is never
// processed concurrently.
func (r *Reliable) receiveData(self, from ids.SiteID, f msg.LinkData) {
	key := linkKey{from, self}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	rl := r.recvs[key]
	if rl == nil {
		rl = &recvLink{epoch: f.Epoch, expected: 1, buffer: make(map[uint64]msg.Message)}
		r.recvs[key] = rl
	}
	switch {
	case f.Epoch < rl.epoch:
		// Stale traffic from a previous session: never deliver, never ack.
		// If it was addressed to this site's dead incarnation, tell the
		// sender about the restart.
		r.count(metrics.LinkStaleDropped, 1)
		restarted, inc := rl.restarted, r.incarnation[self]
		r.mu.Unlock()
		if restarted {
			r.inner.Send(self, from, msg.LinkReset{Epoch: inc})
		}
		return
	case f.Epoch > rl.epoch:
		// The sender opened a new session (e.g. after a restart).
		rl.epoch = f.Epoch
		rl.expected = 1
		rl.buffer = make(map[uint64]msg.Message)
	}
	rl.restarted = false
	var deliver []msg.Message
	switch {
	case f.Seq < rl.expected:
		// Duplicate of a delivered frame; re-ack so the sender stops.
		r.count(metrics.LinkDupDropped, 1)
	case f.Seq == rl.expected:
		deliver = append(deliver, f.Payload)
		rl.expected++
		for {
			p, ok := rl.buffer[rl.expected]
			if !ok {
				break
			}
			delete(rl.buffer, rl.expected)
			deliver = append(deliver, p)
			rl.expected++
		}
	default: // ahead of a gap
		if _, ok := rl.buffer[f.Seq]; ok {
			r.count(metrics.LinkDupDropped, 1)
		} else if len(rl.buffer) < 4*r.opts.Window {
			rl.buffer[f.Seq] = f.Payload
			r.count(metrics.LinkReorderBuffered, 1)
		}
		// Over the buffer bound the frame is dropped; the sender
		// retransmits it after the gap fills.
	}
	inc := r.incarnation[self]
	if inc == 0 {
		inc = r.opts.Epoch
	}
	ack := msg.LinkAck{Epoch: rl.epoch, Cum: rl.expected - 1, Inc: inc}
	batching := r.batching()
	if batching {
		// Acks are cumulative, so the latest one supersedes anything
		// already owed; it rides the next data batch toward the peer, or
		// goes out alone at the next flush tick.
		r.ackPending[linkKey{self, from}] = ack
	}
	h := r.handlers[self]
	r.mu.Unlock()

	if h != nil {
		for _, p := range deliver {
			h.Deliver(from, p)
		}
	}
	if !batching {
		r.count(metrics.LinkAcksSent, 1)
		r.inner.Send(self, from, ack)
	}
}

// receiveBatch unpacks a LinkBatch: its piggybacked ack first (opening the
// window before new data arrives on the reverse path), then each payload in
// sequence order through the ordinary LinkData machinery.
func (r *Reliable) receiveBatch(self, from ids.SiteID, b msg.LinkBatch) {
	if b.AckEpoch != 0 {
		r.receiveAck(self, from, msg.LinkAck{Epoch: b.AckEpoch, Cum: b.AckCum, Inc: b.AckInc})
	}
	for i, item := range b.Items {
		r.receiveData(self, from, msg.LinkData{Epoch: b.Epoch, Seq: b.Base + uint64(i), Payload: item})
	}
}

// receiveAck drops acknowledged frames from the window and promotes queued
// messages into the space opened.
func (r *Reliable) receiveAck(self, from ids.SiteID, a msg.LinkAck) {
	key := linkKey{self, from}
	var out []msg.Message
	r.mu.Lock()
	sl := r.sends[key]
	if sl == nil || r.closed {
		r.mu.Unlock()
		return
	}
	if a.Inc != 0 {
		if a.Inc < sl.peerInc {
			// Ack from a dead incarnation of the peer, delayed in the
			// network: ignore it entirely.
			r.mu.Unlock()
			return
		}
		if sl.peerInc != 0 && a.Inc > sl.peerInc {
			// The peer restarted and its LinkReset announcement was lost;
			// the incarnation piggybacked on the ack reveals it. Reset the
			// session just as if the LinkReset had arrived.
			r.mu.Unlock()
			r.peerRestarted(self, from, a.Inc)
			return
		}
		sl.peerInc = a.Inc
	}
	if a.Epoch != sl.epoch {
		r.mu.Unlock()
		return
	}
	progressed := false
	for len(sl.inflight) > 0 && sl.inflight[0].seq <= a.Cum {
		sl.inflight = sl.inflight[1:]
		r.outstanding--
		progressed = true
	}
	if progressed {
		r.noteIdleLocked()
		for len(sl.pending) > 0 && len(sl.inflight) < r.opts.Window {
			m := sl.pending[0]
			sl.pending = sl.pending[1:]
			seq := sl.nextSeq
			sl.nextSeq++
			sl.inflight = append(sl.inflight, linkFrame{seq: seq, m: m})
			if r.batching() {
				// Promoted frames join the unsent tail; the flusher
				// batches them instead of one LinkData per frame here.
				sl.unsent++
			} else {
				out = append(out, msg.LinkData{Epoch: sl.epoch, Seq: seq, Payload: m})
			}
		}
		if len(sl.inflight) > 0 {
			r.armLocked(sl, r.clk.Now())
		}
	}
	r.mu.Unlock()
	for _, m := range out {
		r.inner.Send(self, from, m)
	}
}

// receiveReset handles a peer's restart announcement.
func (r *Reliable) receiveReset(self, from ids.SiteID, lr msg.LinkReset) {
	r.peerRestarted(self, from, lr.Epoch)
}

// peerRestarted handles the news that peer from came back as incarnation
// inc: the send session toward it is dead (its receive state is gone), so
// open a fresh one, and forget receive state so stale buffered frames
// cannot linger. It acts once per incarnation — a duplicated or delayed
// announcement of one already handled is ignored — and tells self's
// handler first (PeerRestartHandler), before the new session opens.
func (r *Reliable) peerRestarted(self, from ids.SiteID, inc uint64) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	sl := r.sendLinkLocked(self, from)
	if inc <= sl.peerInc {
		r.mu.Unlock()
		return
	}
	h := r.handlers[self]
	r.mu.Unlock()
	if ph, ok := h.(PeerRestartHandler); ok {
		ph.PeerRestarted(from)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || inc <= sl.peerInc {
		return
	}
	sl.peerInc = inc
	r.count(metrics.LinkResets, 1)
	next := sl.epoch + 1
	if own := r.incarnation[self]; own > next {
		next = own
	}
	r.resetSendLinkLocked(sl, next)
	delete(r.recvs, linkKey{from, self})
	// Any ack owed toward the restarted peer refers to a forgotten session.
	delete(r.ackPending, linkKey{self, from})
}

// retransmitLoop periodically rescans links for overdue frames. All
// in-flight frames of an overdue link are resent (the receiver deduplicates
// ones that made it) and the link's backoff doubles up to the cap.
func (r *Reliable) retransmitLoop() {
	defer r.wg.Done()
	tick := max(r.opts.RetransmitInitial/3, time.Millisecond)
	for {
		select {
		case <-r.done:
			return
		case <-r.clk.NewTimer(tick).C:
		}
		r.retransmitDue(r.clk.Now())
	}
}

func (r *Reliable) retransmitDue(now time.Time) {
	type resend struct {
		key   linkKey
		frame msg.Message
	}
	var out []resend
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	for key, sl := range r.sends {
		if len(sl.inflight) == 0 || now.Before(sl.retryAt) {
			continue
		}
		if r.batching() {
			// Resend the whole window as chunked batches. The tail that
			// was never transmitted goes out with it, so clear the unsent
			// mark (first transmissions are not counted as retransmits).
			for start := 0; start < len(sl.inflight); start += r.opts.BatchMax {
				end := start + r.opts.BatchMax
				if end > len(sl.inflight) {
					end = len(sl.inflight)
				}
				chunk := sl.inflight[start:end]
				items := make([]msg.Message, len(chunk))
				for i, f := range chunk {
					items[i] = f.m
				}
				out = append(out, resend{key, msg.LinkBatch{Epoch: sl.epoch, Base: chunk[0].seq, Items: items}})
			}
			r.count(metrics.LinkRetransmits, int64(len(sl.inflight)-sl.unsent))
			sl.unsent = 0
		} else {
			for _, f := range sl.inflight {
				out = append(out, resend{key, msg.LinkData{Epoch: sl.epoch, Seq: f.seq, Payload: f.m}})
			}
			r.count(metrics.LinkRetransmits, int64(len(sl.inflight)))
		}
		sl.backoff = min(2*sl.backoff, retransmitMax)
		sl.retryAt = now.Add(r.jitteredLocked(sl.backoff))
	}
	r.mu.Unlock()
	for _, s := range out {
		r.inner.Send(s.key.from, s.key.to, s.frame)
	}
}
