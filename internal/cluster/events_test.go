package cluster

import (
	"testing"

	"backtrace/internal/event"
	"backtrace/internal/msg"
)

// TestEventLogTellsTheCollectionStory: collecting a ring must leave a
// legible event trail — trace started, trace completed Garbage, inrefs
// flagged, objects collected, outrefs trimmed.
func TestEventLogTellsTheCollectionStory(t *testing.T) {
	log := event.NewLog(1024)
	opts := defaultOpts(3)
	opts.Site.Events = log
	c := New(opts)
	defer c.Close()
	c.BuildRing()
	if _, collected := c.CollectUntilStable(40); collected != 3 {
		t.Fatalf("collected %d", collected)
	}

	started := log.OfKind(event.TraceStarted)
	if len(started) == 0 {
		t.Error("no trace-started events")
	}
	completed := log.OfKind(event.TraceCompleted)
	garbage := 0
	for _, e := range completed {
		if e.Verdict == msg.VerdictGarbage {
			garbage++
			if e.N < 3 {
				t.Errorf("garbage trace with %d participants, want 3", e.N)
			}
		}
	}
	if garbage == 0 {
		t.Error("no garbage-verdict completion events")
	}
	if got := len(log.OfKind(event.InrefFlagged)); got != 3 {
		t.Errorf("inref-flagged events = %d, want 3", got)
	}
	swept := 0
	for _, e := range log.OfKind(event.ObjectsCollected) {
		swept += e.N
	}
	if swept != 3 {
		t.Errorf("objects-collected total = %d, want 3", swept)
	}
	if len(log.OfKind(event.OutrefsTrimmed)) == 0 {
		t.Error("no outrefs-trimmed events")
	}
	// Ordering sanity: the first flag precedes the first sweep.
	var flagSeq, sweepSeq uint64
	for _, e := range log.Snapshot() {
		if e.Kind == event.InrefFlagged && flagSeq == 0 {
			flagSeq = e.Seq
		}
		if e.Kind == event.ObjectsCollected && sweepSeq == 0 {
			sweepSeq = e.Seq
		}
	}
	if flagSeq == 0 || sweepSeq == 0 || flagSeq > sweepSeq {
		t.Errorf("event order wrong: flag #%d, sweep #%d", flagSeq, sweepSeq)
	}
}

// TestEventLogBarrierEvents: a mutator transfer into a suspected region
// must emit transfer-barrier and outref-cleaned events.
func TestEventLogBarrierEvents(t *testing.T) {
	log := event.NewLog(1024)
	opts := defaultOpts(2)
	opts.Site.Events = log
	opts.Site.AutoBackTrace = false
	opts.Site.BackThreshold = 1 << 20
	c := New(opts)
	defer c.Close()

	objs := c.BuildRing()
	c.RunRounds(8) // everything suspected

	// The owner of objs[0] sends its reference to site 2: the transfer
	// barrier fires at site 2? No — at objs[0]'s owner when the message
	// arrives at... the barrier applies where the inref lives, i.e. at
	// the owner when a reference to a LOCAL object arrives. Transfer a
	// reference to site 1's object back to site 1's peer holding it:
	if err := c.Site(1).SendRef(2, objs[0]); err != nil {
		t.Fatal(err)
	}
	c.Settle()
	// objs[0] lives on site 1; site 2 already had an outref for it (the
	// ring edge), which was suspected -> outref-cleaned at site 2.
	if len(log.OfKind(event.OutrefCleaned)) == 0 {
		t.Error("no outref-cleaned event")
	}
	// Transferring a reference to site 2's own object triggers the
	// inref-side transfer barrier at site 2.
	if err := c.Site(2).SendRef(1, objs[1]); err != nil {
		t.Fatal(err)
	}
	c.Settle()
	// objs[1] is at site 2... the RefTransfer goes to site 1; site 1 is
	// not the owner, so the barrier case there is the outref one. Send a
	// reference to the OWNER instead:
	if err := c.Site(1).SendRef(2, objs[1]); err != nil {
		t.Fatal(err)
	}
	c.Settle()
	if len(log.OfKind(event.TransferBarrier)) == 0 {
		t.Error("no transfer-barrier event")
	}
}
