package transport

import (
	"testing"
	"time"

	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/msg"
)

// startTCPPair builds two connected TCP nodes on loopback ephemeral ports.
func startTCPPair(t *testing.T) (*TCPNode, *TCPNode, *collector, *collector) {
	t.Helper()
	addrs := map[ids.SiteID]string{
		1: "127.0.0.1:0",
		2: "127.0.0.1:0",
	}
	n1, err := NewTCPNode(1, addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := NewTCPNode(2, addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	c1 := &collector{self: 1}
	c2 := &collector{self: 2}
	n1.Register(1, c1)
	n2.Register(2, c2)
	a1, err := n1.Listen()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := n2.Listen()
	if err != nil {
		t.Fatal(err)
	}
	n1.SetAddr(2, a2)
	n2.SetAddr(1, a1)
	t.Cleanup(func() {
		n1.Close()
		n2.Close()
	})
	return n1, n2, c1, c2
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestTCPBasicRoundTrip(t *testing.T) {
	n1, n2, c1, c2 := startTCPPair(t)

	n1.Send(1, 2, ping(7))
	waitFor(t, func() bool { return c2.count() == 1 }, "delivery to site 2")
	got := c2.snapshot()
	if got[0].From != 1 || pingSeq(got[0].M) != 7 {
		t.Fatalf("got %+v, want from=1 seq=7", got[0])
	}

	n2.Send(2, 1, ping(9))
	waitFor(t, func() bool { return c1.count() == 1 }, "delivery to site 1")
}

func TestTCPFIFO(t *testing.T) {
	n1, _, _, c2 := startTCPPair(t)
	const total = 300
	for i := uint64(1); i <= total; i++ {
		n1.Send(1, 2, ping(i))
	}
	waitFor(t, func() bool { return c2.count() == total }, "all deliveries")
	for i, env := range c2.snapshot() {
		if pingSeq(env.M) != uint64(i+1) {
			t.Fatalf("out of order at %d: seq %d", i, pingSeq(env.M))
		}
	}
}

func TestTCPLoopback(t *testing.T) {
	n1, _, c1, _ := startTCPPair(t)
	n1.Send(1, 1, ping(3))
	if c1.count() != 1 {
		t.Fatalf("loopback delivered %d, want 1 (synchronous)", c1.count())
	}
}

func TestTCPSendToUnknownSiteIsDrop(t *testing.T) {
	dropped := make(chan msg.Envelope, 1)
	addrs := map[ids.SiteID]string{1: "127.0.0.1:0"}
	n1, err := NewTCPNode(1, addrs, func(e msg.Envelope, d bool) {
		if d {
			dropped <- e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	n1.Register(1, &collector{self: 1})
	if _, err := n1.Listen(); err != nil {
		t.Fatal(err)
	}
	n1.Send(1, 99, ping(1))
	select {
	case <-dropped:
	case <-time.After(time.Second):
		t.Fatal("drop not observed")
	}
}

func TestTCPSpoofedFromIsDropped(t *testing.T) {
	n1, _, _, c2 := startTCPPair(t)
	n1.Send(3, 2, ping(1)) // from != self
	time.Sleep(50 * time.Millisecond)
	if c2.count() != 0 {
		t.Fatal("spoofed-source message was sent")
	}
}

func TestTCPPeerRestartRedials(t *testing.T) {
	addrs := map[ids.SiteID]string{
		1: "127.0.0.1:0",
		2: "127.0.0.1:0",
	}
	n1, err := NewTCPNode(1, addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	n1.Register(1, &collector{self: 1})
	a1, err := n1.Listen()
	if err != nil {
		t.Fatal(err)
	}

	n2, err := NewTCPNode(2, addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	c2 := &collector{self: 2}
	n2.Register(2, c2)
	a2, err := n2.Listen()
	if err != nil {
		t.Fatal(err)
	}
	n1.SetAddr(2, a2)
	n2.SetAddr(1, a1)

	n1.Send(1, 2, ping(1))
	waitFor(t, func() bool { return c2.count() == 1 }, "first delivery")

	// Kill site 2 and bring up a replacement on a fresh port.
	n2.Close()
	n2b, err := NewTCPNode(2, addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n2b.Close()
	c2b := &collector{self: 2}
	n2b.Register(2, c2b)
	a2b, err := n2b.Listen()
	if err != nil {
		t.Fatal(err)
	}
	n1.SetAddr(2, a2b)

	// The first send after the crash may be lost on the stale connection
	// (that is message loss, which the protocol tolerates); a retry must
	// get through on a fresh connection.
	deadline := time.Now().Add(5 * time.Second)
	for c2b.count() == 0 && time.Now().Before(deadline) {
		n1.Send(1, 2, ping(2))
		time.Sleep(10 * time.Millisecond)
	}
	if c2b.count() == 0 {
		t.Fatal("no delivery to restarted peer")
	}
}

// TestTCPListenerRestartFlushesQueue kills the peer mid-stream, keeps
// sending until a failure is counted under transport.send_fail, restarts a
// listener on the same address, and then — without any further Send calls —
// the messages still queued at the sender must flush over a fresh
// connection.
func TestTCPListenerRestartFlushesQueue(t *testing.T) {
	addrs := map[ids.SiteID]string{
		1: "127.0.0.1:0",
		2: "127.0.0.1:0",
	}
	counters := &metrics.Counters{}
	n1, err := NewTCPNodeOpts(1, addrs, TCPOptions{Counters: counters})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	n1.Register(1, &collector{self: 1})
	a1, err := n1.Listen()
	if err != nil {
		t.Fatal(err)
	}

	n2, err := NewTCPNode(2, addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	c2 := &collector{self: 2}
	n2.Register(2, c2)
	a2, err := n2.Listen()
	if err != nil {
		t.Fatal(err)
	}
	n1.SetAddr(2, a2)
	n2.SetAddr(1, a1)

	n1.Send(1, 2, ping(1))
	waitFor(t, func() bool { return c2.count() == 1 }, "first delivery")

	// Kill the listener mid-stream and send until a failure is counted.
	// Messages written into the dead connection before the failure are
	// ordinary loss; everything from the failed message on stays queued.
	n2.Close()
	seq := uint64(1)
	deadline := time.Now().Add(5 * time.Second)
	for counters.Registry().Snapshot().Get(metrics.TransportSendFail) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no send failure observed after peer death")
		}
		seq++
		n1.Send(1, 2, ping(seq))
		time.Sleep(2 * time.Millisecond)
	}

	// Bring a replacement up on the same address.
	n2b, err := NewTCPNode(2, map[ids.SiteID]string{1: a1, 2: a2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n2b.Close()
	c2b := &collector{self: 2}
	n2b.Register(2, c2b)
	if _, err := n2b.Listen(); err != nil {
		t.Fatal(err)
	}

	// No further sends: the queue must drain on its own, through the last
	// message enqueued before the restart.
	last := seq
	waitFor(t, func() bool {
		for _, env := range c2b.snapshot() {
			if pingSeq(env.M) == last {
				return true
			}
		}
		return false
	}, "queued tail to flush after listener restart")
}

func TestTCPAllMessageTypesSurviveWire(t *testing.T) {
	n1, _, _, c2 := startTCPPair(t)
	r := ids.MakeRef(2, 17)
	all := []msg.Message{
		msg.RefTransfer{Payload: r, Pinner: 1},
		msg.Insert{Target: r, Holder: 1, Pinner: 3},
		msg.InsertAck{Target: r},
		msg.ReleasePin{Target: r},
		msg.Update{Removals: []ids.ObjID{4, 5}, Distances: []msg.DistanceUpdate{{Obj: 4, Distance: 3}}},
		msg.BackCall{Trace: ids.TraceID{Initiator: 1, Seq: 2}, Steps: []msg.BackStep{{Caller: 3, Outref: r.Obj}}},
		msg.BackReply{Trace: ids.TraceID{Initiator: 1, Seq: 2}, Results: []msg.BackResult{{Result: msg.VerdictLive, Participants: []ids.SiteID{1, 2}}}},
		msg.Report{Trace: ids.TraceID{Initiator: 1, Seq: 2}, Outcome: msg.VerdictGarbage},
		msg.LinkBatch{Epoch: 1, Base: 1, Items: []msg.Message{msg.ReleasePin{Target: r}, msg.Report{Outcome: msg.VerdictLive}}},
	}
	for _, m := range all {
		n1.Send(1, 2, m)
	}
	waitFor(t, func() bool { return c2.count() == len(all) }, "all message kinds")
	got := c2.snapshot()
	for i, env := range got {
		if msg.Name(env.M) != msg.Name(all[i]) {
			t.Errorf("message %d decoded as %s, want %s", i, msg.Name(env.M), msg.Name(all[i]))
		}
	}
	// Spot-check a payload survived intact.
	upd, ok := got[4].M.(msg.Update)
	if !ok || len(upd.Removals) != 2 || upd.Distances[0].Distance != 3 {
		t.Errorf("Update payload corrupted: %+v", got[4].M)
	}
}
