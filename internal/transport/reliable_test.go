package transport

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"backtrace/internal/clock"
	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/msg"
	"backtrace/internal/wire"
)

// chaosReliable builds a Reliable layer over a memnet with the given fault
// probabilities and registers collectors for sites 1..n.
func chaosReliable(t *testing.T, opts Options, n int) (*Reliable, *Net, map[ids.SiteID]*collector, *metrics.Counters) {
	t.Helper()
	counters := &metrics.Counters{}
	inner := NewNet(opts)
	r := NewReliable(inner, ReliableOptions{
		Seed:              7,
		RetransmitInitial: 2 * time.Millisecond,
		Counters:          counters,
	})
	t.Cleanup(r.Close)
	cols := make(map[ids.SiteID]*collector, n)
	for i := 1; i <= n; i++ {
		id := ids.SiteID(i)
		cols[id] = &collector{self: id}
		r.Register(id, cols[id])
	}
	return r, inner, cols, counters
}

// settleReliable waits for every sent frame to be acknowledged and every
// delivery (including trailing acks) to finish.
func settleReliable(t *testing.T, r *Reliable, inner *Net) {
	t.Helper()
	if err := r.AwaitIdle(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := inner.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestReliableExactlyOnceInOrderUnderChaos is the acceptance assertion for
// the session layer: under 30% loss plus duplication plus reordering, every
// message reaches its handler exactly once, in per-link send order.
func TestReliableExactlyOnceInOrderUnderChaos(t *testing.T) {
	r, inner, cols, counters := chaosReliable(t, Options{
		DropProb:    0.3,
		DupProb:     0.3,
		ReorderProb: 0.3,
		Seed:        42,
		Jitter:      200 * time.Microsecond,
	}, 3)

	const perLink = 400
	// Interleave two links from site 1 so per-link order is tested with
	// cross-link traffic in between.
	for i := uint64(1); i <= perLink; i++ {
		r.Send(1, 2, ping(i))
		r.Send(1, 3, ping(i))
	}
	settleReliable(t, r, inner)

	for _, to := range []ids.SiteID{2, 3} {
		got := cols[to].snapshot()
		if len(got) != perLink {
			t.Fatalf("site %v: delivered %d messages, want exactly %d", to, len(got), perLink)
		}
		for i, env := range got {
			if env.From != 1 {
				t.Fatalf("site %v: message %d from %v, want 1", to, i, env.From)
			}
			if pingSeq(env.M) != uint64(i+1) {
				t.Fatalf("site %v: out of order at %d: seq %d", to, i, pingSeq(env.M))
			}
		}
	}
	if counters.Registry().Snapshot().Get(metrics.LinkRetransmits) == 0 {
		t.Error("no retransmissions recorded under 30% loss")
	}
	if counters.Registry().Snapshot().Get(metrics.LinkDupDropped) == 0 {
		t.Error("no duplicates dropped under 30% duplication")
	}
	if counters.Registry().Snapshot().Get(metrics.LinkAcksSent) == 0 {
		t.Error("no acks recorded")
	}
}

// TestReliableWindowQueuesBeyondLimit: sends past the in-flight window queue
// at the sender and still arrive, in order, as acks open the window.
func TestReliableWindowQueuesBeyondLimit(t *testing.T) {
	counters := &metrics.Counters{}
	inner := NewNet(Options{})
	r := NewReliable(inner, ReliableOptions{
		Window:            4,
		RetransmitInitial: 2 * time.Millisecond,
		Counters:          counters,
	})
	defer r.Close()
	c1, c2 := &collector{self: 1}, &collector{self: 2}
	r.Register(1, c1)
	r.Register(2, c2)

	const total = 100
	for i := uint64(1); i <= total; i++ {
		r.Send(1, 2, ping(i))
	}
	settleReliable(t, r, inner)
	got := c2.snapshot()
	if len(got) != total {
		t.Fatalf("delivered %d, want %d", len(got), total)
	}
	for i, env := range got {
		if pingSeq(env.M) != uint64(i+1) {
			t.Fatalf("out of order at %d: seq %d", i, pingSeq(env.M))
		}
	}
}

// TestReliablePassthroughUnwrapped: bare protocol messages from a peer not
// running the session layer reach the handler unchanged.
func TestReliablePassthroughUnwrapped(t *testing.T) {
	inner := NewNet(Options{})
	r := NewReliable(inner, ReliableOptions{})
	defer r.Close()
	c2 := &collector{self: 2}
	r.Register(2, c2)

	inner.Send(1, 2, ping(9)) // bypasses the session layer entirely
	if err := inner.Quiesce(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	got := c2.snapshot()
	if len(got) != 1 || pingSeq(got[0].M) != 9 {
		t.Fatalf("passthrough delivery wrong: %+v", got)
	}
}

// TestReliableRestartResetsSession: after a site restart (NotifyRestart),
// peers open a fresh epoch, stale frames from the old session are rejected,
// and new traffic flows exactly once.
func TestReliableRestartResetsSession(t *testing.T) {
	r, inner, cols, counters := chaosReliable(t, Options{}, 2)

	for i := uint64(1); i <= 5; i++ {
		r.Send(1, 2, ping(i))
	}
	settleReliable(t, r, inner)
	if cols[2].count() != 5 {
		t.Fatalf("pre-restart: delivered %d, want 5", cols[2].count())
	}
	oldInc := r.Incarnation(2)

	// Site 2 crashes and restarts; recovery announces the new incarnation.
	r.NotifyRestart(2, oldInc+1, []ids.SiteID{1})
	if err := inner.Quiesce(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := r.Incarnation(2); got != oldInc+1 {
		t.Fatalf("incarnation = %d, want %d", got, oldInc+1)
	}
	if counters.Registry().Snapshot().Get(metrics.LinkResets) == 0 {
		t.Fatal("no link resets recorded")
	}

	// New traffic opens a post-restart session and flows normally.
	for i := uint64(6); i <= 10; i++ {
		r.Send(1, 2, ping(i))
	}
	settleReliable(t, r, inner)

	// A stale frame from site 1's pre-restart session (epoch 1) must be
	// rejected, not delivered: the receiver's session is now at a higher
	// epoch.
	inner.Send(1, 2, msg.LinkData{Epoch: 1, Seq: 2, Payload: ping(99)})
	settleReliable(t, r, inner)

	got := cols[2].snapshot()
	if len(got) != 10 {
		t.Fatalf("delivered %d total, want 10 (stale frame must not deliver)", len(got))
	}
	for _, env := range got {
		if pingSeq(env.M) == 99 {
			t.Fatal("stale old-epoch frame was delivered after restart")
		}
	}
	if counters.Registry().Snapshot().Get(metrics.LinkStaleDropped) == 0 {
		t.Error("stale frame not counted as dropped")
	}
}

// TestReliableRestartDropsQueuedTraffic: frames in flight toward a crashed
// site are abandoned on reset (counted, not replayed into the new
// incarnation).
func TestReliableRestartDropsQueuedTraffic(t *testing.T) {
	// Only site 1 is up: site 2 is "down" (unregistered), so frames toward
	// it vanish in the inner network and sit unacknowledged in the window.
	r, inner, _, counters := chaosReliable(t, Options{}, 1)

	for i := uint64(1); i <= 7; i++ {
		r.Send(1, 2, ping(i))
	}

	// Site 2 restarts from a checkpoint and announces it. Site 1 abandons
	// the seven frames: they were addressed to the dead incarnation.
	r.NotifyRestart(2, 0, []ids.SiteID{1})
	settleReliable(t, r, inner)

	if got := counters.Registry().Snapshot().Get(metrics.LinkResetDropped); got != 7 {
		t.Fatalf("reset dropped %d frames, want 7", got)
	}
	// Traffic sent after the reset starts a new session and arrives.
	c2 := &collector{self: 2}
	r.Register(2, c2)
	r.Send(1, 2, ping(100))
	settleReliable(t, r, inner)
	got := c2.snapshot()
	if len(got) != 1 || pingSeq(got[0].M) != 100 {
		t.Fatalf("post-reset delivery wrong: %+v", got)
	}
}

// TestReliableCrashRetransmitHealsWithoutReset: a transient outage (network
// partition, no restart) is healed purely by retransmission — nothing is
// lost and nothing is duplicated.
func TestReliableCrashRetransmitHealsWithoutReset(t *testing.T) {
	r, inner, cols, _ := chaosReliable(t, Options{}, 2)

	inner.Partition(1, 2)
	for i := uint64(1); i <= 20; i++ {
		r.Send(1, 2, ping(i))
	}
	time.Sleep(10 * time.Millisecond)
	if cols[2].count() != 0 {
		t.Fatal("partitioned link delivered")
	}
	inner.Heal(1, 2)
	settleReliable(t, r, inner)

	got := cols[2].snapshot()
	if len(got) != 20 {
		t.Fatalf("delivered %d after heal, want 20", len(got))
	}
	for i, env := range got {
		if pingSeq(env.M) != uint64(i+1) {
			t.Fatalf("out of order at %d: seq %d", i, pingSeq(env.M))
		}
	}
}

// TestReliableAwaitIdleReportsStuckFrames: with the link cut, AwaitIdle
// times out and says how many frames are unacknowledged.
func TestReliableAwaitIdleReportsStuckFrames(t *testing.T) {
	r, inner, _, _ := chaosReliable(t, Options{}, 2)
	inner.Partition(1, 2)
	r.Send(1, 2, ping(1))
	err := r.AwaitIdle(20 * time.Millisecond)
	if err == nil {
		t.Fatal("AwaitIdle succeeded with an unacknowledgeable frame")
	}
	if !strings.Contains(err.Error(), "1 frame") {
		t.Fatalf("error %q does not mention the stuck frame", err)
	}
}

// TestReliableCloseIsIdempotent mirrors the memnet close contract.
func TestReliableCloseIsIdempotent(t *testing.T) {
	inner := NewNet(Options{})
	r := NewReliable(inner, ReliableOptions{})
	c := &collector{self: 2}
	r.Register(2, c)
	r.Close()
	r.Close() // must not panic
	r.Send(1, 2, ping(1))
	if c.count() != 0 {
		t.Error("send after close was delivered")
	}
}

// batchedReliable builds a batching Reliable over a memnet, with an inner
// observer counting physical envelopes by type.
func batchedReliable(t *testing.T, opts Options, batch int, n int) (*Reliable, *Net, map[ids.SiteID]*collector, *metrics.Counters, *envelopeTally) {
	t.Helper()
	tally := &envelopeTally{}
	opts.Observer = tally.observe
	counters := &metrics.Counters{}
	inner := NewNet(opts)
	r := NewReliable(inner, ReliableOptions{
		Seed:              7,
		RetransmitInitial: 5 * time.Millisecond,
		FlushInterval:     time.Millisecond,
		BatchMax:          batch,
		Counters:          counters,
	})
	t.Cleanup(r.Close)
	cols := make(map[ids.SiteID]*collector, n)
	for i := 1; i <= n; i++ {
		id := ids.SiteID(i)
		cols[id] = &collector{self: id}
		r.Register(id, cols[id])
	}
	return r, inner, cols, counters, tally
}

// envelopeTally counts the physical envelopes entering the inner network.
type envelopeTally struct {
	mu              sync.Mutex
	total           int
	batches         int
	standaloneAcks  int
	piggybackedAcks int
}

func (e *envelopeTally) observe(env msg.Envelope, dropped bool) {
	if dropped {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.total++
	switch m := env.M.(type) {
	case msg.LinkBatch:
		e.batches++
		if m.AckEpoch != 0 {
			e.piggybackedAcks++
		}
	case msg.LinkAck:
		e.standaloneAcks++
	}
}

func (e *envelopeTally) snapshot() envelopeTally {
	e.mu.Lock()
	defer e.mu.Unlock()
	return envelopeTally{total: e.total, batches: e.batches,
		standaloneAcks: e.standaloneAcks, piggybackedAcks: e.piggybackedAcks}
}

// TestReliableBatchingExactlyOnceUnderChaos re-runs the session layer's
// acceptance assertion with link-level batching on: 30% loss plus
// duplication plus reordering, and every message still reaches its handler
// exactly once, in per-link send order.
func TestReliableBatchingExactlyOnceUnderChaos(t *testing.T) {
	r, inner, cols, counters, tally := batchedReliable(t, Options{
		DropProb:    0.3,
		DupProb:     0.3,
		ReorderProb: 0.3,
		Seed:        42,
		Jitter:      200 * time.Microsecond,
	}, 8, 3)

	const perLink = 400
	for i := uint64(1); i <= perLink; i++ {
		r.Send(1, 2, ping(i))
		r.Send(1, 3, ping(i))
	}
	settleReliable(t, r, inner)

	for _, to := range []ids.SiteID{2, 3} {
		got := cols[to].snapshot()
		if len(got) != perLink {
			t.Fatalf("site %v: delivered %d messages, want exactly %d", to, len(got), perLink)
		}
		for i, env := range got {
			if pingSeq(env.M) != uint64(i+1) {
				t.Fatalf("site %v: out of order at %d: seq %d", to, i, pingSeq(env.M))
			}
		}
	}
	if counters.Registry().Snapshot().Get(metrics.LinkRetransmits) == 0 {
		t.Error("no retransmissions recorded under 30% loss")
	}
	if tal := tally.snapshot(); tal.batches == 0 {
		t.Error("no LinkBatch frames on the wire with batching enabled")
	}
	if counters.Registry().Snapshot().Get(metrics.WireFlushes) == 0 {
		t.Error("no batch flushes counted")
	}
}

// TestReliableBatchingCoalescesFrames: on a clean link, a burst of sends
// coalesces into far fewer physical envelopes than messages, without losing
// or reordering anything.
func TestReliableBatchingCoalescesFrames(t *testing.T) {
	r, inner, cols, counters, tally := batchedReliable(t, Options{}, 16, 2)

	const total = 320
	for i := uint64(1); i <= total; i++ {
		r.Send(1, 2, ping(i))
	}
	settleReliable(t, r, inner)

	got := cols[2].snapshot()
	if len(got) != total {
		t.Fatalf("delivered %d, want %d", len(got), total)
	}
	for i, env := range got {
		if pingSeq(env.M) != uint64(i+1) {
			t.Fatalf("out of order at %d: seq %d", i, pingSeq(env.M))
		}
	}
	tal := tally.snapshot()
	// A tight send loop against a 16-deep batcher must coalesce well below
	// one envelope per message; allow generous slack for flush-tick races.
	if tal.total >= total {
		t.Errorf("batching sent %d envelopes for %d messages (no coalescing)", tal.total, total)
	}
	if tal.batches == 0 {
		t.Error("no LinkBatch frames observed")
	}
	if hw := counters.Registry().Snapshot().Get(metrics.WireBatchSize); hw < 2 {
		t.Errorf("batch size high-water %d, want >= 2", hw)
	}
}

// TestReliableBatchingPiggybacksAcks: an ack owed for received traffic
// rides the next reverse-direction data batch instead of going out as a
// standalone LinkAck frame. The batcher runs on a virtual clock so the test
// controls exactly when flushes happen.
func TestReliableBatchingPiggybacksAcks(t *testing.T) {
	tally := &envelopeTally{}
	vc := clock.NewVirtual(time.Unix(0, 0))
	inner := NewNet(Options{Observer: tally.observe})
	r := NewReliable(inner, ReliableOptions{
		Seed:              7,
		RetransmitInitial: time.Minute, // never fires: only explicit flushes transmit
		FlushInterval:     time.Millisecond,
		BatchMax:          8,
		Clock:             vc,
		Counters:          &metrics.Counters{},
	})
	defer r.Close()
	c1, c2 := &collector{self: 1}, &collector{self: 2}
	r.Register(1, c1)
	r.Register(2, c2)

	// tick fires one flush interval and lets the resulting deliveries land.
	tick := func() {
		t.Helper()
		time.Sleep(5 * time.Millisecond) // let flushLoop re-arm its timer
		vc.Advance(2 * time.Millisecond)
		time.Sleep(5 * time.Millisecond)
		if err := inner.Quiesce(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}

	// Wave 1: data 1->2 sits in the batcher until the flush tick; site 2
	// then owes an ack for it.
	for i := uint64(1); i <= 3; i++ {
		r.Send(1, 2, ping(i))
	}
	tick()
	if got := c2.count(); got != 3 {
		t.Fatalf("site 2 delivered %d, want 3", got)
	}

	// Wave 2: data 2->1 flushes while the ack is owed, so the ack must ride
	// the batch.
	for i := uint64(1); i <= 3; i++ {
		r.Send(2, 1, ping(i))
	}
	tick()
	if got := c1.count(); got != 3 {
		t.Fatalf("site 1 delivered %d, want 3", got)
	}
	tal := tally.snapshot()
	if tal.piggybackedAcks == 0 {
		t.Errorf("no piggybacked acks (batches %d, standalone acks %d)", tal.batches, tal.standaloneAcks)
	}
	if tal.standaloneAcks != 0 {
		t.Errorf("%d standalone acks before any ack-only flush was due", tal.standaloneAcks)
	}

	// A final tick with no reverse data: site 1's owed ack for wave 2 now
	// travels alone.
	tick()
	if tal := tally.snapshot(); tal.standaloneAcks == 0 {
		t.Error("ack with nothing to piggyback on never flushed standalone")
	}
}

// TestReliableCrossCodecEquivalence (wire migration property): the same
// traffic pushed through the session layer over a lossy, duplicating,
// reordering memnet arrives bit-identical whether the network round-trips
// every frame through the binary codec or no codec at all. Loss forces
// retransmissions, so frames are encoded and decoded repeatedly along the
// way.
func TestReliableCrossCodecEquivalence(t *testing.T) {
	const total = 120
	mix := func(i uint64) msg.Message {
		switch i % 4 {
		case 0:
			return msg.Update{
				Removals:  []ids.ObjID{ids.ObjID(i), ids.ObjID(i * 3)},
				Distances: []msg.DistanceUpdate{{Obj: ids.ObjID(i), Distance: int(i % 17)}},
				Holds:     []ids.ObjID{ids.ObjID(i + 1)},
			}
		case 1:
			return msg.BackCall{
				Trace: ids.TraceID{Initiator: 1, Seq: i},
				Steps: []msg.BackStep{
					{Caller: i, Outref: ids.ObjID(i * 7)},
					{Caller: i + 1, Outref: ids.ObjID(i), Suspect: 1},
				},
			}
		case 2:
			return msg.BackReply{
				Trace: ids.TraceID{Initiator: 1, Seq: i},
				Results: []msg.BackResult{{
					Caller:       i,
					Result:       msg.VerdictLive,
					Participants: []ids.SiteID{1, 2, ids.SiteID(i%9 + 1)},
				}},
			}
		default:
			return msg.RefTransfer{Payload: ids.MakeRef(2, ids.ObjID(i)), Pinner: 1}
		}
	}

	codecs := map[string]wire.Codec{"none": nil, "binary": wire.Binary{}}
	delivered := make(map[string][]msg.Envelope, len(codecs))
	for name, codec := range codecs {
		inner := NewNet(Options{
			DropProb:    0.25,
			DupProb:     0.15,
			ReorderProb: 0.2,
			Seed:        99,
			Codec:       codec,
		})
		r := NewReliable(inner, ReliableOptions{
			Seed:              7,
			RetransmitInitial: 2 * time.Millisecond,
			BatchMax:          4,
			Counters:          &metrics.Counters{},
		})
		c2 := &collector{self: 2}
		r.Register(1, &collector{self: 1})
		r.Register(2, c2)
		for i := uint64(1); i <= total; i++ {
			r.Send(1, 2, mix(i))
		}
		settleReliable(t, r, inner)
		delivered[name] = c2.snapshot()
		r.Close()
	}

	want := delivered["none"]
	if len(want) != total {
		t.Fatalf("codec none delivered %d, want %d", len(want), total)
	}
	for _, name := range []string{"binary"} {
		got := delivered[name]
		if len(got) != total {
			t.Fatalf("codec %s delivered %d, want %d", name, len(got), total)
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("codec %s message %d differs:\n got %#v\nwant %#v", name, i, got[i], want[i])
			}
		}
	}
}
