package cluster

import (
	"bytes"
	"testing"

	"backtrace/internal/msg"
	"backtrace/internal/site"
)

// TestRestartKeepsSiteConfig checkpoints one site and restores it from
// SiteConfig, the configuration New built it from: the new incarnation must
// run with the same collector knobs, report into the cluster's registry,
// and still take part in collecting the cycle.
func TestRestartKeepsSiteConfig(t *testing.T) {
	opts := defaultOpts(3)
	opts.Site.MaxInflightTraces = 2
	opts.Site.TraceBatch = 3
	c := New(opts)
	defer c.Close()

	root := c.Site(1).NewRootObject()
	live := c.Site(2).NewObject()
	c.MustLink(root, live)
	ring := c.BuildRing()

	var buf bytes.Buffer
	if err := c.Site(2).WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	before := c.Site(2).Config()
	c.Net().DropMatching(func(e msg.Envelope) bool { return e.To == 2 || e.From == 2 })
	restored, err := site.Restore(c.SiteConfig(2), &buf)
	if err != nil {
		t.Fatal(err)
	}
	c.ReplaceSite(2, restored)

	type knobs struct {
		t, t2, bump, inflight, batch int
		auto                         bool
	}
	knobsOf := func(cfg site.Config) knobs {
		return knobs{cfg.SuspicionThreshold, cfg.BackThreshold, cfg.ThresholdBump,
			cfg.MaxInflightTraces, cfg.TraceBatch, cfg.AutoBackTrace}
	}
	after := restored.Config()
	if knobsOf(after) != knobsOf(before) {
		t.Fatalf("restored knobs %+v, want %+v", knobsOf(after), knobsOf(before))
	}
	if after.MaxInflightTraces != 2 || after.TraceBatch != 3 {
		t.Fatalf("restored knobs %+v lost the cluster's scheduler settings", knobsOf(after))
	}
	if after.Counters.Registry() != c.Registry() {
		t.Fatal("restored site reports into its own registry, not the cluster's")
	}

	rounds, collected := c.CollectUntilStable(40)
	if collected != len(ring) {
		t.Fatalf("collected %d in %d rounds after the restart, want the %d-ring", collected, rounds, len(ring))
	}
	if !c.Site(1).ContainsObject(root.Obj) || !c.Site(2).ContainsObject(live.Obj) {
		t.Fatal("live object collected")
	}
	if got := c.InvariantViolations(); len(got) != 0 {
		t.Fatalf("invariants: %v", got)
	}
}
