package cluster

import (
	"bytes"
	"testing"
	"time"

	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/site"
)

// pendingTransfers reads the cluster-wide site.owner_transfers_pending
// gauge and each site's own count.
func pendingTransfers(c *Cluster) (gauge int64, perSite []int) {
	for _, s := range c.Sites() {
		perSite = append(perSite, s.OwnerTransfersPending())
	}
	return c.Metrics().Get(metrics.OwnerTransfersPending), perSite
}

// TestOwnerTransfersGaugeQuiesces: every owner-sent transfer stays on the
// owner's record until its receiver's receipt arrives, so the gauge rises while
// references move and reads zero on every site once the cluster is quiet —
// over the stepped network and over the session layer with mailboxes.
func TestOwnerTransfersGaugeQuiesces(t *testing.T) {
	for _, reliable := range []bool{false, true} {
		opts := defaultOpts(3)
		opts.Reliable = reliable
		if reliable {
			opts.Site.InboxSize = 16
		}
		c := New(opts)
		root := c.Site(1).NewRootObject()
		live := c.Site(2).NewObject()
		c.MustLink(root, live)
		ring := c.BuildRing()
		if !reliable {
			// Stepped: the record holds the transfer until the receipt is
			// delivered.
			x := c.Site(3).NewObject()
			if err := c.Site(3).SendRef(1, x); err != nil {
				t.Fatal(err)
			}
			if g, per := pendingTransfers(c); g != 1 || per[2] != 1 {
				t.Fatalf("after an undelivered transfer the gauge reads %d and the sites %v, want 1 at site 3", g, per)
			}
			c.Settle()
			c.Site(1).DropAppRoot(x)
		}
		c.RunRounds(2)
		c.Settle()
		if g, per := pendingTransfers(c); g != 0 || per[0]+per[1]+per[2] != 0 {
			t.Fatalf("reliable=%v: after quiescence the gauge reads %d and the sites %v, want 0", reliable, g, per)
		}
		if _, collected := c.CollectUntilStable(40); collected != len(ring) {
			t.Fatalf("reliable=%v: collected %d, want the %d-ring", reliable, collected, len(ring))
		}
		if !c.Site(2).ContainsObject(live.Obj) {
			t.Fatalf("reliable=%v: live object collected", reliable)
		}
		c.Close()
	}
}

// TestOwnerTransferRecordVoidedOnHolderRestart: over the session layer, a
// holder's restart voids the owner's record of transfers to the dead
// incarnation. Here the transfer never arrives (the link is cut), and the
// restart's LinkReset is lost with it; when the link heals, the owner's
// retransmission reaches the new incarnation's reopened receive link, which
// rejects it and answers with a LinkReset. The owner then voids its record
// before it opens a session to the new incarnation, and transfers to the
// new incarnation are recorded and receipted as usual. With mailboxes the
// owner learns of the restart through the inbox's restart marker (the
// interleaving where a dead incarnation's receipt is still queued behind it
// is forced in the site package's TestPeerRestartOrderedBehindInbox).
func TestOwnerTransferRecordVoidedOnHolderRestart(t *testing.T) {
	for _, inbox := range []int{0, 16} {
		ownerTransferRecordVoidedOnHolderRestart(t, inbox)
	}
}

func ownerTransferRecordVoidedOnHolderRestart(t *testing.T, inbox int) {
	opts := defaultOpts(2)
	opts.Reliable = true
	opts.Site.InboxSize = inbox
	c := New(opts)
	defer c.Close()
	owner := c.Site(1)
	c.Net().Partition(1, 2)
	x := owner.NewRootObject()
	if err := owner.SendRef(2, x); err != nil {
		t.Fatal(err)
	}
	if n := owner.OwnerTransfersPending(); n != 1 {
		t.Fatalf("owner records %d transfers, want 1", n)
	}

	var buf bytes.Buffer
	if err := c.Site(2).WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := site.Restore(c.SiteConfig(2), &buf)
	if err != nil {
		t.Fatal(err)
	}
	c.ReplaceSite(2, restored)
	c.Net().Heal(1, 2)
	waitFor(t, "the owner voids its record", func() bool { return owner.OwnerTransfersPending() == 0 })
	for _, o := range restored.Outrefs() {
		if o.Target == x {
			t.Fatal("a transfer addressed to the dead incarnation reached the new one")
		}
	}

	y := owner.NewRootObject()
	if err := owner.SendRef(2, y); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the new incarnation receipts the transfer", func() bool {
		held := false
		for _, o := range restored.Outrefs() {
			held = held || o.Target == y
		}
		return held && owner.OwnerTransfersPending() == 0
	})
	if srcs := sourcesOf(owner, y.Obj); len(srcs) != 1 || srcs[0] != 2 {
		t.Fatalf("owner lists %v for y, want [S2]", srcs)
	}
}

func sourcesOf(s *site.Site, obj ids.ObjID) []ids.SiteID {
	for _, in := range s.Inrefs() {
		if in.Obj == obj {
			return in.Sources
		}
	}
	return nil
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
