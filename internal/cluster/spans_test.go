package cluster

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"backtrace/internal/ids"
	"backtrace/internal/obs"
)

// recorder is an Observer that keeps every event and span, for tests that
// need the whole history rather than the collector's bounded tail.
type recorder struct {
	mu     sync.Mutex
	events []obs.Event
}

func (r *recorder) OnEvent(e obs.Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

func (r *recorder) OnSpan(obs.Span) {}

// rootSpans returns the root spans of the back traces site initiated.
func rootSpans(c *Cluster, site ids.SiteID) []*obs.Span {
	var out []*obs.Span
	for _, tree := range c.Spans().Trees() {
		if tree.Root != nil && tree.Root.Site == site {
			out = append(out, tree.Root)
		}
	}
	return out
}

// checkSpanCompleteness cross-checks the event stream against the span
// collector: every back trace with a TraceStarted AND a TraceCompleted
// event must have an assembled tree whose root span closed and whose
// root-listed participant sites all contributed a closed participant span;
// and no participant span may reference a trace with no root (orphan),
// except for trees the collector evicted. eventsEvicted says whether
// older events were lost to a bound.
func checkSpanCompleteness(t *testing.T, c *Cluster, events []obs.Event, eventsEvicted bool) {
	t.Helper()
	started := make(map[ids.TraceID]struct{})
	completed := make(map[ids.TraceID]struct{})
	for _, e := range events {
		switch e.Kind {
		case obs.TraceStarted:
			started[e.Trace] = struct{}{}
		case obs.TraceCompleted:
			completed[e.Trace] = struct{}{}
		}
	}
	if len(started) == 0 {
		t.Fatal("no back traces started during the run")
	}
	evicted := c.Spans().Evicted() > 0

	checked := 0
	for id := range started {
		if _, done := completed[id]; !done {
			// A trace resolved by a lost-message timeout at the initiator
			// still completes; one truncated by shutdown may not. The event
			// history may be bounded too, so only pair-wise complete traces
			// are checked strictly.
			continue
		}
		tree := c.Spans().Tree(id)
		if tree == nil {
			if evicted || eventsEvicted {
				continue // bounded retention may have dropped old traces
			}
			t.Fatalf("trace %v: started and completed but no span tree", id)
		}
		if tree.Root == nil {
			t.Fatalf("trace %v: tree has participant spans but no root", id)
		}
		if tree.Root.End.IsZero() || tree.Root.End.Before(tree.Root.Start) {
			t.Fatalf("trace %v: root span not closed: %+v", id, tree.Root)
		}
		if !tree.Complete() {
			t.Fatalf("trace %v: tree incomplete: root participants %v, spans %+v",
				id, tree.Root.Participants, tree.Participants)
		}
		have := make(map[ids.SiteID]*obs.Span, len(tree.Participants))
		for _, p := range tree.Participants {
			have[p.Site] = p
		}
		for _, siteID := range tree.Root.Participants {
			p, ok := have[siteID]
			if !ok {
				t.Fatalf("trace %v: participant %v has no span", id, siteID)
			}
			if p.End.IsZero() || p.End.Before(p.Start) {
				t.Fatalf("trace %v: participant %v span not closed: %+v", id, siteID, p)
			}
			if p.Hops <= 0 && siteID != id.Initiator {
				t.Fatalf("trace %v: remote participant %v handled no calls: %+v", id, siteID, p)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no completed traces to check")
	}
	if orphans := c.Spans().OrphanTraceIDs(); len(orphans) > 0 && !evicted {
		t.Fatalf("orphan trace ids (participant spans with no root): %v", orphans)
	}
}

// TestSpanCompletenessSerial checks that a deterministic multi-site
// collection produces one complete span tree per back trace.
func TestSpanCompletenessSerial(t *testing.T) {
	c := New(defaultOpts(4))
	defer c.Close()

	c.BuildRing()
	if _, collected := c.CollectUntilStable(60); collected != 4 {
		t.Fatalf("collected %d, want 4", collected)
	}
	events, evicted := c.Spans().Events()
	checkSpanCompleteness(t, c, events, evicted > 0)
}

// TestSpanCompletenessParallelStress drives the parallel mailbox driver
// with concurrent mutators while back traces run, then asserts (under
// -race) that every TraceStarted/TraceCompleted pair assembled into a
// complete cross-site span tree: closed root, a closed participant span
// from every site the trace engaged, and no orphan TraceIDs.
func TestSpanCompletenessParallelStress(t *testing.T) {
	const (
		numSites = 4
		duration = 300 * time.Millisecond
	)
	rec := &recorder{}
	opts := defaultOpts(numSites)
	opts.Parallel = true
	opts.Site.InboxSize = 8 // small inbox so spans carry real queue waits
	opts.Site.Observer = rec
	c := New(opts)
	defer c.Close()

	// Seed garbage the back traces will chase.
	c.BuildRing()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Mutators allocating local cycles and transferring refs between sites.
	for i := 1; i <= numSites; i++ {
		id := ids.SiteID(i)
		wg.Add(1)
		go func(id ids.SiteID, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			s := c.Site(id)
			local := []ids.Ref{s.NewRootObject()}
			pick := func() ids.Ref { return local[rng.Intn(len(local))] }
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch rng.Intn(4) {
				case 0:
					n := s.NewObject()
					if err := s.AddReference(pick().Obj, n); err == nil {
						local = append(local, n)
					}
				case 1:
					_ = s.AddReference(pick().Obj, pick())
				case 2:
					peer := ids.SiteID(1 + rng.Intn(numSites))
					if peer != id {
						if r := pick(); s.SendRef(peer, r) == nil {
							// Peer never adopts it; the hold drains below.
						}
					}
				case 3:
					if fields, err := s.Fields(pick().Obj); err == nil && len(fields) > 0 {
						_ = s.RemoveReference(pick().Obj, fields[rng.Intn(len(fields))])
					}
				}
			}
		}(id, int64(i))
	}

	// Collectors running local traces and triggering back traces.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := c.Site(ids.SiteID(1 + rng.Intn(numSites)))
				if rng.Intn(2) == 0 {
					s.RunLocalTrace()
				} else {
					s.TriggerBackTraces()
					c.Spans().Events()
				}
			}
		}(int64(100 + g))
	}

	time.Sleep(duration)
	close(stop)
	wg.Wait()
	c.Settle()

	// Drain the mutator holds, then keep collecting so the remaining
	// garbage generates full-cluster traces.
	for {
		dropped := false
		for _, s := range c.Sites() {
			for _, r := range s.AuditSnapshot().AppRoots {
				s.DropAppRoot(r)
				dropped = true
			}
		}
		c.Settle()
		if !dropped {
			break
		}
	}
	c.CollectUntilStable(120)
	c.Settle()

	rec.mu.Lock()
	events := append([]obs.Event(nil), rec.events...)
	rec.mu.Unlock()
	checkSpanCompleteness(t, c, events, false)

	// The run must also have produced latency observations.
	snap := c.Metrics()
	if snap.Histograms[obs.MetricBackTraceRTT].Count == 0 {
		t.Fatal("no back-trace RTT observations")
	}
	if snap.Histograms[obs.MetricMailboxQueueDelay].Count == 0 {
		t.Fatal("no mailbox queue-delay observations")
	}
	if snap.Histograms[obs.MetricLocalTraceDuration].Count == 0 {
		t.Fatal("no local-trace duration observations")
	}
}
