package cluster

import (
	"testing"
	"time"

	"backtrace/internal/ids"
	"backtrace/internal/msg"
)

// TestParticipantCrashMidTrace: a participant site crashes while a back
// trace is waiting on it. The initiator's call timeout resolves the trace
// Live (safe); after the site returns, retries confirm and collect the
// cycle.
func TestParticipantCrashMidTrace(t *testing.T) {
	opts := defaultOpts(3)
	opts.Site.AutoBackTrace = false
	opts.Site.BackThreshold = 7
	opts.Site.CallTimeout = time.Nanosecond // expire on the next check
	opts.Site.ReportTimeout = time.Nanosecond
	c := New(opts)
	defer c.Close()

	objs := c.BuildRing()
	c.RunRounds(6) // everything suspected

	// Start a trace; its first BackCall heads for site 2. Crash site 2
	// before delivering anything.
	trace, ok := c.Site(1).StartBackTrace(objs[1])
	if !ok {
		t.Fatal("no trace")
	}
	c.Net().Crash(2)
	c.Settle() // the queued call is dropped

	if c.Site(1).ActiveFrames() == 0 {
		t.Fatal("expected a frame waiting on the crashed site")
	}
	c.CheckAllTimeouts()
	roots := rootSpans(c, 1)
	if len(roots) != 1 || roots[0].Trace != trace || roots[0].Verdict != msg.VerdictLive {
		t.Fatalf("root spans = %+v, want one timeout-Live root for %v", roots, trace)
	}
	if c.Site(1).ActiveFrames() != 0 {
		t.Fatal("frames leaked after timeout")
	}
	// Nothing was flagged: the cycle is intact (conservative).
	for _, s := range c.Sites() {
		if len(s.GarbageFlaggedInrefs()) != 0 {
			t.Fatal("timeout trace flagged inrefs")
		}
	}

	// Site 2 returns; distances keep growing; a retried trace collects.
	c.Net().Restart(2)
	for round := 0; round < 30 && c.GarbageCount() > 0; round++ {
		c.RunRound()
		c.Site(1).TriggerBackTraces()
		c.Settle()
		c.CheckAllTimeouts()
	}
	if g := c.GarbageCount(); g != 0 {
		t.Fatalf("cycle not collected after recovery: %d garbage", g)
	}
}

// TestInitiatorCrashMidTrace: the initiator crashes after its calls went
// out. Participants hold visit marks; their report timeout clears them as
// Live, so a later trace (from another site) can still confirm the cycle.
func TestInitiatorCrashMidTrace(t *testing.T) {
	opts := defaultOpts(3)
	opts.Site.AutoBackTrace = false
	opts.Site.CallTimeout = time.Nanosecond
	opts.Site.ReportTimeout = time.Nanosecond
	c := New(opts)
	defer c.Close()

	objs := c.BuildRing()
	c.RunRounds(6)

	if _, ok := c.Site(1).StartBackTrace(objs[1]); !ok {
		t.Fatal("no trace")
	}
	// Deliver the outbound call so site 2 marks its iorefs, then crash
	// the initiator before the reply lands.
	c.Net().DeliverMatching(func(e msg.Envelope) bool {
		_, isCall := e.M.(msg.BackCall)
		return isCall && e.To == 2
	})
	c.Net().Crash(1)
	c.Settle()

	// Participants time out waiting for the report and clear their marks.
	c.CheckAllTimeouts()
	for _, id := range []ids.SiteID{2, 3} {
		if len(c.Site(id).GarbageFlaggedInrefs()) != 0 {
			t.Fatalf("site %v flagged without a report", id)
		}
	}

	// Site 1 comes back (its volatile trace state is gone, which is the
	// crash model); collection proceeds from any site.
	c.Net().Restart(1)
	for round := 0; round < 30 && c.GarbageCount() > 0; round++ {
		c.RunRound()
		for _, s := range c.Sites() {
			s.TriggerBackTraces()
		}
		c.Settle()
		c.CheckAllTimeouts()
	}
	if g := c.GarbageCount(); g != 0 {
		t.Fatalf("cycle not collected after initiator crash: %d garbage", g)
	}
}

// TestPartitionDuringTraceHealsByTimeout: a partition between two
// participants during a trace resolves Live by timeout; collection
// succeeds after healing.
func TestPartitionDuringTraceHealsByTimeout(t *testing.T) {
	opts := defaultOpts(4)
	opts.Site.AutoBackTrace = false
	opts.Site.CallTimeout = time.Nanosecond
	opts.Site.ReportTimeout = time.Nanosecond
	c := New(opts)
	defer c.Close()

	objs := c.BuildRing()
	c.RunRounds(8)

	c.Net().Partition(2, 3)
	if _, ok := c.Site(1).StartBackTrace(objs[1]); !ok {
		t.Fatal("no trace")
	}
	c.Settle()
	c.CheckAllTimeouts()
	c.Settle()
	c.CheckAllTimeouts() // drain any frames waiting on dropped messages

	if c.GarbageCount() != 4 {
		t.Fatal("partitioned trace must not have collected anything")
	}

	c.Net().Heal(2, 3)
	for round := 0; round < 30 && c.GarbageCount() > 0; round++ {
		c.RunRound()
		for _, s := range c.Sites() {
			s.TriggerBackTraces()
		}
		c.Settle()
		c.CheckAllTimeouts()
	}
	if g := c.GarbageCount(); g != 0 {
		t.Fatalf("cycle not collected after heal: %d garbage", g)
	}
}
