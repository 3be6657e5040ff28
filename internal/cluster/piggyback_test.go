package cluster

import (
	"testing"

	"backtrace/internal/metrics"
)

// TestPiggybackPreservesSemantics (paper §4.6: back-trace messages "can be
// piggybacked on other messages"): with batching on, collection outcomes
// are identical and the number of envelopes on the wire drops.
func TestPiggybackPreservesSemantics(t *testing.T) {
	run := func(piggyback bool) (collected int, envelopes, logical int64) {
		opts := defaultOpts(4)
		opts.Site.Piggyback = piggyback
		c := New(opts)
		defer c.Close()
		c.BuildRing()
		c.BuildRing() // two interleaved cycles: more traffic to coalesce
		c.Counters().Reset()
		_, collected = c.CollectUntilStable(40)
		snap := c.Counters().Snapshot()
		envelopes = snap[metrics.WireFrames]
		logical = snap["msg.Update"] + snap["msg.BackCall"] + snap["msg.BackReply"] +
			snap["msg.Report"] + snap["msg.Insert"] + snap["msg.InsertAck"] +
			snap["msg.ReleasePin"] + snap["msg.RefTransfer"]
		return collected, envelopes, logical
	}

	plainCollected, plainEnv, _ := run(false)
	pbCollected, pbEnv, pbLogical := run(true)

	if plainCollected != 8 || pbCollected != 8 {
		t.Fatalf("collected: plain %d, piggyback %d; want 8", plainCollected, pbCollected)
	}
	if pbEnv >= plainEnv {
		t.Errorf("piggyback envelopes %d >= plain %d (no coalescing happened)", pbEnv, plainEnv)
	}
	// Logical counts are per leaf, so coalescing shrinks envelopes while
	// the per-type counters stay comparable across the two runs.
	if pbLogical > pbEnv {
		t.Logf("piggyback: %d envelopes for %d logical messages", pbEnv, pbLogical)
	}
	t.Logf("envelopes: plain=%d piggyback=%d", plainEnv, pbEnv)
}

// TestPiggybackWithRaces ensures batching does not break the Figure 5/6
// safety machinery (FIFO within a batch preserves the ordering the proofs
// rely on).
func TestPiggybackWithRaces(t *testing.T) {
	opts := defaultOpts(4)
	opts.Site.Piggyback = true
	c := New(opts)
	defer c.Close()

	root := c.Site(1).NewRootObject()
	objs := c.BuildRing()
	c.MustLink(root, objs[2])

	c.RunRounds(20)
	for _, o := range objs {
		if !c.Site(o.Site).ContainsObject(o.Obj) {
			t.Fatalf("live cycle member %v collected under piggybacking", o)
		}
	}
	if got := c.InvariantViolations(); len(got) != 0 {
		t.Fatalf("invariants: %v", got)
	}
}
