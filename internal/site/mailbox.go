package site

import (
	"fmt"
	"sync"
	"time"

	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/msg"
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
}

func newMailbox(s *Site, capacity int) *mailbox {
	mb := &mailbox{s: s, capacity: capacity, done: make(chan struct{})}
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

	c := mb.s.cfg.Counters
	c.Inc(metrics.MailboxEnqueued)
	c.Max(metrics.MailboxDepthPeak, int64(depth))
	mb.s.gaugeDepth.Set(int64(depth))
	if waited {
		c.Inc(metrics.MailboxBackpressure)
	}
}

// run is the dispatch loop: dequeue one message, apply it to the site
// (taking the site lock outside the mailbox lock), repeat until stopped.
func (mb *mailbox) run() {
	defer close(mb.done)
	for {
		mb.mu.Lock()
		for len(mb.queue) == 0 && !mb.closed {
			mb.notEmpty.Wait()
		}
		if mb.closed {
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

		mb.s.deliverQueued(in.from, in.m, mb.s.clk.Now().Sub(in.at))

		mb.mu.Lock()
		mb.busy--
		mb.noteIdleLocked()
		mb.mu.Unlock()
	}
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
// it to exit. Safe to call repeatedly.
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
