// Package clock abstracts time for the collector's runtime components.
//
// Every component that reads the wall clock (span timestamps, retransmission
// deadlines, mailbox queue-delay accounting, quiesce timeouts) does so
// through a Clock. Production code uses Wall, which delegates to the time
// package. The deterministic simulation harness (internal/sim) injects a
// Virtual clock, which advances only when the simulation scheduler says so:
// the same schedule then produces byte-for-byte identical timestamps, span
// trees, and timeout firings on every run.
package clock

import (
	"sync"
	"time"
)

// Clock is the time source injected into sites, transports, and mailboxes.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// NewTimer returns a timer whose channel receives the clock's time
	// once, when at least d has elapsed. For Wall this is time.NewTimer;
	// for Virtual the channel fires when Advance moves the clock past the
	// deadline. A wait that ends early stops its timer, so the clock
	// releases it instead of holding it until it fires.
	NewTimer(d time.Duration) *Timer
	// Sleep blocks until at least d has elapsed on this clock.
	Sleep(d time.Duration)
}

// Timer is a one-shot timer from Clock.NewTimer: C receives the clock's time
// once when it fires.
type Timer struct {
	C    <-chan time.Time
	stop func() bool
}

// Stop prevents the timer from firing and releases it. It reports whether
// the call stopped the timer (false if it had already fired or stopped).
func (t *Timer) Stop() bool { return t.stop() }

// --- wall clock ----------------------------------------------------------

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

func (wallClock) NewTimer(d time.Duration) *Timer {
	t := time.NewTimer(d)
	return &Timer{C: t.C, stop: t.Stop}
}

// Wall is the real-time clock backed by the time package.
var Wall Clock = wallClock{}

// OrWall returns c, or Wall when c is nil — the defaulting rule every
// component applies to its optional Clock configuration field.
func OrWall(c Clock) Clock {
	if c == nil {
		return Wall
	}
	return c
}

// --- virtual clock -------------------------------------------------------

// Virtual is a manually advanced clock. Now returns the virtual time, which
// moves only through Advance (or Set). Timers created with NewTimer fire when
// an Advance carries the clock to or past their deadline, in deadline order.
//
// Virtual is safe for concurrent use, but the deterministic simulation uses
// it single-threaded: one scheduler goroutine advances time between events.
type Virtual struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*virtualWaiter // unordered; scanned on Advance
}

type virtualWaiter struct {
	at time.Time
	ch chan time.Time
}

// Epoch is the default start instant for virtual clocks: an arbitrary fixed
// UTC time, so virtual timestamps are stable across runs, machines, and
// time zones.
var Epoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// NewVirtual returns a virtual clock starting at start; a zero start means
// Epoch.
func NewVirtual(start time.Time) *Virtual {
	if start.IsZero() {
		start = Epoch
	}
	return &Virtual{now: start}
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// NewTimer implements Clock. A non-positive d fires immediately; Stop drops
// the timer from the clock's pending set, so NextTimer no longer reports it.
func (v *Virtual) NewTimer(d time.Duration) *Timer {
	ch := make(chan time.Time, 1)
	v.mu.Lock()
	defer v.mu.Unlock()
	if d <= 0 {
		ch <- v.now
		return &Timer{C: ch, stop: func() bool { return false }}
	}
	w := &virtualWaiter{at: v.now.Add(d), ch: ch}
	v.waiters = append(v.waiters, w)
	return &Timer{C: ch, stop: func() bool { return v.drop(w) }}
}

// drop removes a pending timer, reporting whether it was still pending.
func (v *Virtual) drop(w *virtualWaiter) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	for i, x := range v.waiters {
		if x == w {
			v.waiters = append(v.waiters[:i], v.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// Sleep implements Clock: it blocks until another goroutine advances the
// clock past the deadline. Never call it from the goroutine that drives
// Advance.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-v.NewTimer(d).C
}

// Advance moves the clock forward by d and fires every timer whose deadline
// has been reached, earliest first.
func (v *Virtual) Advance(d time.Duration) {
	if d < 0 {
		d = 0
	}
	v.mu.Lock()
	v.now = v.now.Add(d)
	now := v.now
	var due []*virtualWaiter
	kept := v.waiters[:0]
	for _, w := range v.waiters {
		if !w.at.After(now) {
			due = append(due, w)
		} else {
			kept = append(kept, w)
		}
	}
	v.waiters = kept
	v.mu.Unlock()
	// Fire outside the lock, earliest deadline first, so waiters observe a
	// deterministic wake order.
	for i := 1; i < len(due); i++ {
		for j := i; j > 0 && due[j].at.Before(due[j-1].at); j-- {
			due[j], due[j-1] = due[j-1], due[j]
		}
	}
	for _, w := range due {
		w.ch <- now
	}
}

// NextTimer reports the earliest pending timer deadline, if any. The
// simulation scheduler uses it to jump virtual time straight to the next
// event instead of ticking.
func (v *Virtual) NextTimer() (time.Time, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	var best time.Time
	ok := false
	for _, w := range v.waiters {
		if !ok || w.at.Before(best) {
			best, ok = w.at, true
		}
	}
	return best, ok
}
