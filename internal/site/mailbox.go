package site

import (
	"fmt"
	"sync"
	"time"

	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/msg"
	"backtrace/internal/obs"
)

// inbound is one queued inbox entry: the sending site, its message, and
// when it was enqueued (for the queue-delay histogram).
type inbound struct {
	from ids.SiteID
	m    msg.Message
	at   time.Time
}

// mailbox is a site's bounded inbox plus its dispatch goroutine. Transport
// threads append with enqueue (blocking while the queue is at capacity —
// backpressure that pushes queueing back into the network rather than
// growing without bound), and a single dispatcher applies messages to the
// site in arrival order. One dispatcher per site preserves the per-link
// FIFO delivery the protocol assumes (R1): the transport already delivers
// each link in order, and a single consumer cannot reorder what it dequeues.
type mailbox struct {
	s        *Site
	capacity int

	mu       sync.Mutex
	notEmpty *sync.Cond // a message arrived, or the mailbox closed
	notFull  *sync.Cond // a slot freed for a blocked producer
	queue    []inbound
	busy     int // queued messages plus any message being dispatched
	closed   bool
	idle     chan struct{} // non-nil while a waiter needs a busy==0 signal
	done     chan struct{} // closed when the dispatcher exits

	// The enqueue path's instruments, resolved once on the shared registry.
	enqueued, backpressure *obs.Counter
	depthPeak              *obs.Gauge
}

func newMailbox(s *Site, capacity int) *mailbox {
	reg := s.cfg.Counters.Registry()
	mb := &mailbox{
		s:            s,
		capacity:     capacity,
		done:         make(chan struct{}),
		enqueued:     reg.Counter(metrics.MailboxEnqueued, ""),
		backpressure: reg.Counter(metrics.MailboxBackpressure, ""),
		depthPeak:    reg.Gauge(metrics.MailboxDepthPeak, ""),
	}
	mb.notEmpty = sync.NewCond(&mb.mu)
	mb.notFull = sync.NewCond(&mb.mu)
	go mb.run()
	return mb
}

// enqueue appends a message, blocking while the queue is at capacity.
// Messages offered after stop are dropped — indistinguishable from loss in
// flight, which the protocol tolerates.
func (mb *mailbox) enqueue(from ids.SiteID, m msg.Message) {
	mb.mu.Lock()
	waited := false
	for len(mb.queue) >= mb.capacity && !mb.closed {
		waited = true
		mb.notFull.Wait()
	}
	if mb.closed {
		mb.mu.Unlock()
		return
	}
	mb.queue = append(mb.queue, inbound{from: from, m: m, at: mb.s.clk.Now()})
	mb.busy++
	depth := len(mb.queue)
	mb.notEmpty.Signal()
	mb.mu.Unlock()

	mb.enqueued.Inc()
	mb.depthPeak.Max(int64(depth))
	mb.s.gaugeDepth.Set(int64(depth))
	if waited {
		mb.backpressure.Inc()
	}
}

// burstCap bounds a burst: the dispatcher closes it after this many
// messages even while the inbox stays full. It is also the bound on what
// the engine holds, which is what this many handled messages (and the
// mutator and commit entry points that run meanwhile) send.
const burstCap = 64

// run is the dispatch loop: dequeue one message, apply it to the site
// (taking the site lock outside the mailbox lock), repeat until stopped.
// Messages are applied in bursts. The first message of a burst opens it;
// the burst closes inside the critical section of the message after which
// the inbox is empty or burstCap messages were applied (burstOver), or, if
// the mailbox stops first, before the dispatcher exits. Either way it
// closes before its last message stops counting toward depth, so an idle
// mailbox never leaves back-trace messages held.
func (mb *mailbox) run() {
	defer close(mb.done)
	n := 0 // messages applied in the open burst
	for {
		mb.mu.Lock()
		for len(mb.queue) == 0 && !mb.closed {
			mb.notEmpty.Wait()
		}
		if mb.closed {
			if n > 0 {
				mb.mu.Unlock()
				mb.s.endBurst()
				mb.mu.Lock()
			}
			mb.busy -= len(mb.queue)
			mb.queue = nil
			mb.notFull.Broadcast()
			mb.noteIdleLocked()
			mb.mu.Unlock()
			return
		}
		in := mb.queue[0]
		mb.queue = mb.queue[1:]
		mb.notFull.Signal()
		mb.mu.Unlock()

		n++
		if mb.s.deliverQueued(in.from, in.m, mb.s.clk.Now().Sub(in.at), n) {
			n = 0
		}

		mb.mu.Lock()
		mb.busy--
		mb.noteIdleLocked()
		mb.mu.Unlock()
	}
}

// burstOver reports whether a burst that has applied n messages ends: the
// inbox is empty, the cap is reached, or the mailbox is stopping. The
// dispatcher asks under the site lock, so in the common case of an empty
// inbox the burst closes without another trip through the site lock.
func (mb *mailbox) burstOver(n int) bool {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return n >= burstCap || len(mb.queue) == 0 || mb.closed
}

// noteIdleLocked wakes any awaitIdle waiter once the last in-flight message
// has been fully dispatched. Called with mb.mu held.
func (mb *mailbox) noteIdleLocked() {
	if mb.busy == 0 && mb.idle != nil {
		close(mb.idle)
		mb.idle = nil
	}
}

// depth returns queued messages plus any message mid-dispatch, so depth()==0
// means the site has fully absorbed everything enqueued so far.
func (mb *mailbox) depth() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.busy
}

// awaitIdle blocks until depth reaches zero or the timeout elapses. The
// dispatcher closes the idle channel when the last in-flight message has
// been applied, so waiters sleep instead of polling; the timeout runs on the
// site clock, so virtual-time harnesses control it like every other timer.
func (mb *mailbox) awaitIdle(timeout time.Duration) error {
	clk := mb.s.clk
	deadline := clk.Now().Add(timeout)
	for {
		mb.mu.Lock()
		if mb.busy == 0 {
			mb.mu.Unlock()
			return nil
		}
		if mb.idle == nil {
			mb.idle = make(chan struct{})
		}
		idle := mb.idle
		depth := mb.busy
		mb.mu.Unlock()

		remaining := deadline.Sub(clk.Now())
		if remaining <= 0 {
			return fmt.Errorf("site %v: inbox not idle after %v (depth %d)", mb.s.cfg.ID, timeout, depth)
		}
		timer := clk.NewTimer(remaining)
		select {
		case <-idle:
		case <-timer.C:
			// Deadline reached; the next loop iteration reports the error
			// (or success, if the inbox drained at the last instant).
		}
		timer.Stop()
	}
}

// stop shuts the dispatcher down, abandoning queued messages, and waits for
// it to exit; the dispatcher closes its open burst first, shipping what the
// engine held. Safe to call repeatedly.
func (mb *mailbox) stop() {
	mb.mu.Lock()
	if !mb.closed {
		mb.closed = true
		mb.notEmpty.Broadcast()
		mb.notFull.Broadcast()
	}
	mb.mu.Unlock()
	<-mb.done
}
