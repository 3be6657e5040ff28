package metrics

import (
	"strings"
	"sync"
	"testing"

	"backtrace/internal/ids"
	"backtrace/internal/msg"
)

// get reads a counter or gauge c recorded, through its registry.
func get(c *Counters, name string) int64 { return c.Registry().Snapshot().Get(name) }

func TestCountersBasics(t *testing.T) {
	var c Counters
	if get(&c, "x") != 0 {
		t.Fatal("fresh counter nonzero")
	}
	c.Inc("x")
	c.Add("x", 4)
	if got := get(&c, "x"); got != 5 {
		t.Fatalf("x = %d, want 5", got)
	}
	c.Max("peak", 3)
	c.Max("peak", 1)
	c.Max("peak", 7)
	if got := get(&c, "peak"); got != 7 {
		t.Fatalf("peak = %d, want 7", got)
	}
}

// TestCountersSnapshotIsCopy: a registry snapshot of what Counters recorded
// does not alias the live instruments.
func TestCountersSnapshotIsCopy(t *testing.T) {
	var c Counters
	c.Inc("a")
	snap := c.Registry().Snapshot()
	snap.Counters["a"] = 99
	if get(&c, "a") != 1 {
		t.Fatal("snapshot aliases internal state")
	}
}

// TestCountersReset: resetting the registry clears what Counters recorded.
func TestCountersReset(t *testing.T) {
	var c Counters
	c.Inc("a")
	c.Max("peak", 3)
	c.Registry().Reset()
	if get(&c, "a") != 0 || get(&c, "peak") != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestObserveMessage(t *testing.T) {
	var c Counters
	env := msg.Envelope{From: 1, To: 2, M: msg.Report{}}
	c.ObserveMessage(env, false)
	c.ObserveMessage(env, false)
	c.ObserveMessage(env, true)
	if got := get(&c, MsgTotal); got != 2 {
		t.Errorf("total = %d, want 2", got)
	}
	if got := get(&c, MsgDropped); got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
	if got := get(&c, "msg.Report"); got != 2 {
		t.Errorf("msg.Report = %d, want 2", got)
	}
}

// TestObserveMessageEveryType: each leaf type counts under its own name,
// wrappers are unwrapped, and only what was observed is declared.
func TestObserveMessageEveryType(t *testing.T) {
	leaves := []msg.Message{
		msg.RefTransfer{}, msg.Insert{}, msg.InsertAck{}, msg.ReleasePin{},
		msg.Update{}, msg.BackCall{}, msg.BackReply{}, msg.Report{}, msg.LinkAck{},
	}
	for _, leaf := range leaves {
		var c Counters
		c.ObserveMessage(msg.Envelope{M: leaf}, false)
		c.ObserveMessage(msg.Envelope{M: msg.LinkBatch{Items: []msg.Message{leaf, msg.LinkBatch{Items: []msg.Message{leaf}}}}}, false)
		want := map[string]int64{WireFrames: 2, MsgTotal: 3, MsgName(leaf): 3}
		got := c.Registry().Snapshot().Counters
		if len(got) != len(want) {
			t.Fatalf("%s: declared %v, want %v", msg.Name(leaf), got, want)
		}
		for name, n := range want {
			if got[name] != n {
				t.Fatalf("%s: %s = %d, want %d", msg.Name(leaf), name, got[name], n)
			}
		}
	}
}

// BenchmarkObserveMessage: one two-leaf frame counted, the transport
// observer's per-send cost.
func BenchmarkObserveMessage(b *testing.B) {
	var c Counters
	env := msg.Envelope{From: 1, To: 2, M: msg.LinkBatch{Items: []msg.Message{msg.BackCall{}, msg.BackReply{}}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.ObserveMessage(env, false)
	}
}

func TestMsgName(t *testing.T) {
	if got := MsgName(msg.BackCall{}); got != "msg.BackCall" {
		t.Fatalf("MsgName = %q", got)
	}
}

func TestCountersConcurrent(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc("n")
				c.Max("m", int64(j))
			}
		}()
	}
	wg.Wait()
	if got := get(&c, "n"); got != 8000 {
		t.Fatalf("n = %d, want 8000", got)
	}
	if got := get(&c, "m"); got != 999 {
		t.Fatalf("m = %d, want 999", got)
	}
}

func TestMsgNameCoversAllTypes(t *testing.T) {
	all := []msg.Message{
		msg.RefTransfer{}, msg.Insert{}, msg.InsertAck{}, msg.ReleasePin{},
		msg.Update{}, msg.BackCall{}, msg.BackReply{}, msg.Report{},
	}
	seen := make(map[string]bool)
	for _, m := range all {
		name := msg.Name(m)
		if strings.Contains(name, "%") || name == "" {
			t.Errorf("bad name %q", name)
		}
		if seen[name] {
			t.Errorf("duplicate name %q", name)
		}
		seen[name] = true
	}
	_ = ids.NoSite
}
