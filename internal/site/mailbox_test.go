package site

import (
	"testing"
	"time"

	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/transport"
)

// newAsyncPair builds two sites on an asynchronous network, the receiver
// running a mailbox executor with the given inbox capacity.
func newAsyncPair(t *testing.T, inbox int) (*Site, *Site, *transport.Net) {
	t.Helper()
	net := transport.NewNet(transport.Options{})
	a := New(Config{ID: 1, Network: net, SuspicionThreshold: 3, BackThreshold: 7})
	b := New(Config{ID: 2, Network: net, SuspicionThreshold: 3, BackThreshold: 7, InboxSize: inbox})
	t.Cleanup(func() {
		a.Close()
		b.Close()
		net.Close()
	})
	return a, b, net
}

// settle waits for the network and the receiver's inbox to drain.
func settle(t *testing.T, net *transport.Net, sites ...*Site) {
	t.Helper()
	for i := 0; i < 3; i++ {
		if err := net.Quiesce(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		for _, s := range sites {
			if err := s.AwaitInboxIdle(10 * time.Second); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestMailboxProcessesTransfersInOrder drives the full insert protocol
// through a tiny inbox: the capacity-1 mailbox forces backpressure on the
// delivery worker while preserving per-link FIFO, so every transfer must
// still complete and the tables must agree on both sides.
func TestMailboxProcessesTransfersInOrder(t *testing.T) {
	a, b, net := newAsyncPair(t, 1)

	const n = 50
	sent := make([]ids.Ref, n)
	for i := range sent {
		sent[i] = a.NewObject()
		if err := a.SendRef(2, sent[i]); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, net, a, b)

	if got := a.NumInrefs(); got != n {
		t.Fatalf("owner has %d inrefs, want %d", got, n)
	}
	if got := b.NumOutrefs(); got != n {
		t.Fatalf("holder has %d outrefs, want %d", got, n)
	}
	c := b.Metrics()
	if got := c.Get(metrics.MailboxEnqueued); got < n {
		t.Fatalf("mailbox.enqueued = %d, want >= %d", got, n)
	}
	if got := c.Get(metrics.MailboxDepthPeak); got < 1 {
		t.Fatalf("mailbox.depth.peak = %d, want >= 1", got)
	}
	if b.InboxDepth() != 0 {
		t.Fatalf("inbox depth %d after settle", b.InboxDepth())
	}
}

// TestMailboxCloseUnblocksAndDropsQueued checks that Close is safe while
// traffic is still arriving and that it is idempotent.
func TestMailboxCloseUnblocksAndDropsQueued(t *testing.T) {
	a, b, net := newAsyncPair(t, 2)

	for i := 0; i < 20; i++ {
		r := a.NewObject()
		if err := a.SendRef(2, r); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	b.Close() // idempotent
	if err := net.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if b.InboxDepth() != 0 {
		t.Fatalf("inbox depth %d after close", b.InboxDepth())
	}
}
