package obs

import (
	"strings"
	"sync"
	"testing"

	"backtrace/internal/ids"
	"backtrace/internal/msg"
)

func TestKindStrings(t *testing.T) {
	kinds := []EventKind{
		TraceStarted, TraceCompleted, InrefFlagged, ObjectsCollected,
		OutrefsTrimmed, TransferBarrier, OutrefCleaned, TimeoutAssumedLive,
		CheckpointWritten, SiteRestored,
	}
	seen := make(map[string]bool)
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.Contains(s, "Kind(") {
			t.Errorf("kind %d has bad name %q", k, s)
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if EventKind(99).String() == "" {
		t.Error("unknown kind renders empty")
	}
}

func TestEventString(t *testing.T) {
	e := Event{
		Seq: 3, Site: 2, Kind: TraceCompleted,
		Trace: ids.TraceID{Initiator: 2, Seq: 7}, Verdict: msg.VerdictLive, N: 4,
	}
	s := e.String()
	for _, want := range []string{"#3", "S2", "trace-completed", "T(S2#7)", "Live", "participants=4"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	e2 := Event{Seq: 1, Site: 1, Kind: ObjectsCollected, N: 9}
	if !strings.Contains(e2.String(), "n=9") {
		t.Errorf("String() = %q", e2.String())
	}
}

// checkEvents asserts the collector retains wantLen events numbered in
// arrival order after wantEvicted older ones, and returns them.
func checkEvents(t *testing.T, c *Collector, wantLen int, wantEvicted int64) []Event {
	t.Helper()
	evs, evicted := c.Events()
	if len(evs) != wantLen || evicted != wantEvicted {
		t.Fatalf("events: len=%d evicted=%d, want %d and %d", len(evs), evicted, wantLen, wantEvicted)
	}
	for i, e := range evs {
		if e.Seq != uint64(wantEvicted)+uint64(i)+1 {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, uint64(wantEvicted)+uint64(i)+1)
		}
	}
	return evs
}

func TestAppendAndSnapshotOrder(t *testing.T) {
	c := NewCollector(CollectorOptions{})
	for i := 0; i < 5; i++ {
		c.OnEvent(Event{Site: 1, Kind: TraceStarted, N: i})
	}
	for i, e := range checkEvents(t, c, 5, 0) {
		if e.N != i {
			t.Fatalf("order broken at %d: %+v", i, e)
		}
	}
}

func TestRingEviction(t *testing.T) {
	c := NewCollector(CollectorOptions{})
	for i := 0; i < MaxEvents+10; i++ {
		c.OnEvent(Event{Kind: ObjectsCollected, N: i})
	}
	for i, e := range checkEvents(t, c, MaxEvents, 10) {
		if e.N != i+10 {
			t.Fatalf("wrong window at %d: %+v", i, e)
		}
	}
}

func TestConcurrentAppend(t *testing.T) {
	c := NewCollector(CollectorOptions{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.OnEvent(Event{Kind: TraceStarted})
			}
		}()
	}
	wg.Wait()
	checkEvents(t, c, MaxEvents, 8000-MaxEvents)
}
