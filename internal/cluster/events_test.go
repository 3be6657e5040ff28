package cluster

import (
	"testing"

	"backtrace/internal/msg"
	"backtrace/internal/obs"
)

// ofKind returns the events of one kind the cluster's collector retains,
// oldest first. It fails the test if older events were evicted, so a
// count over the result is a count over the whole run.
func ofKind(t *testing.T, c *Cluster, k obs.EventKind) []obs.Event {
	t.Helper()
	events, evicted := c.Spans().Events()
	if evicted > 0 {
		t.Fatalf("%d events evicted: the run outgrew the collector's event ring", evicted)
	}
	var out []obs.Event
	for _, e := range events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// TestEventLogTellsTheCollectionStory: collecting a ring must leave a
// legible event trail — trace started, trace completed Garbage, inrefs
// flagged, objects collected, outrefs trimmed.
func TestEventLogTellsTheCollectionStory(t *testing.T) {
	c := New(defaultOpts(3))
	defer c.Close()
	c.BuildRing()
	if _, collected := c.CollectUntilStable(40); collected != 3 {
		t.Fatalf("collected %d", collected)
	}

	started := ofKind(t, c, obs.TraceStarted)
	if len(started) == 0 {
		t.Error("no trace-started events")
	}
	completed := ofKind(t, c, obs.TraceCompleted)
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
	if got := len(ofKind(t, c, obs.InrefFlagged)); got != 3 {
		t.Errorf("inref-flagged events = %d, want 3", got)
	}
	swept := 0
	for _, e := range ofKind(t, c, obs.ObjectsCollected) {
		swept += e.N
	}
	if swept != 3 {
		t.Errorf("objects-collected total = %d, want 3", swept)
	}
	if len(ofKind(t, c, obs.OutrefsTrimmed)) == 0 {
		t.Error("no outrefs-trimmed events")
	}
	// Ordering sanity: the first flag precedes the first sweep.
	flags, sweeps := ofKind(t, c, obs.InrefFlagged), ofKind(t, c, obs.ObjectsCollected)
	if len(flags) == 0 || len(sweeps) == 0 || flags[0].Seq > sweeps[0].Seq {
		t.Errorf("event order wrong: flags %v, sweeps %v", flags, sweeps)
	}
}

// TestEventLogBarrierEvents: a mutator transfer into a suspected region
// must emit transfer-barrier and outref-cleaned events.
func TestEventLogBarrierEvents(t *testing.T) {
	opts := defaultOpts(2)
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
	if len(ofKind(t, c, obs.OutrefCleaned)) == 0 {
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
	if len(ofKind(t, c, obs.TransferBarrier)) == 0 {
		t.Error("no transfer-barrier event")
	}
}
