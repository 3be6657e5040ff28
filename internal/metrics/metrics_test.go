package metrics

import (
	"strings"
	"sync"
	"testing"

	"backtrace/internal/ids"
	"backtrace/internal/msg"
)

func TestCountersBasics(t *testing.T) {
	var c Counters
	if c.Get("x") != 0 {
		t.Fatal("fresh counter nonzero")
	}
	c.Inc("x")
	c.Add("x", 4)
	if got := c.Get("x"); got != 5 {
		t.Fatalf("x = %d, want 5", got)
	}
	c.Max("peak", 3)
	c.Max("peak", 1)
	c.Max("peak", 7)
	if got := c.Get("peak"); got != 7 {
		t.Fatalf("peak = %d, want 7", got)
	}
}

func TestCountersSnapshotIsCopy(t *testing.T) {
	var c Counters
	c.Inc("a")
	snap := c.Snapshot()
	snap["a"] = 99
	if c.Get("a") != 1 {
		t.Fatal("snapshot aliases internal state")
	}
}

func TestCountersReset(t *testing.T) {
	var c Counters
	c.Inc("a")
	c.Reset()
	if c.Get("a") != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestCountersStringSorted(t *testing.T) {
	var c Counters
	c.Inc("bbb")
	c.Inc("aaa")
	s := c.String()
	if !strings.Contains(s, "aaa") || !strings.Contains(s, "bbb") {
		t.Fatalf("String() = %q", s)
	}
	if strings.Index(s, "aaa") > strings.Index(s, "bbb") {
		t.Fatal("String() not sorted")
	}
}

func TestObserveMessage(t *testing.T) {
	var c Counters
	env := msg.Envelope{From: 1, To: 2, M: msg.Report{}}
	c.ObserveMessage(env, false)
	c.ObserveMessage(env, false)
	c.ObserveMessage(env, true)
	if c.Get(MsgTotal) != 2 {
		t.Errorf("total = %d, want 2", c.Get(MsgTotal))
	}
	if c.Get(MsgDropped) != 1 {
		t.Errorf("dropped = %d, want 1", c.Get(MsgDropped))
	}
	if c.Get("msg.Report") != 2 {
		t.Errorf("msg.Report = %d, want 2", c.Get("msg.Report"))
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
		c.ObserveMessage(msg.Envelope{M: msg.LinkData{Payload: msg.Batch{Items: []msg.Message{leaf, leaf}}}}, false)
		want := map[string]int64{WireFrames: 2, MsgTotal: 3, MsgName(leaf): 3}
		got := c.Snapshot()
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
	env := msg.Envelope{From: 1, To: 2, M: msg.Batch{Items: []msg.Message{msg.BackCall{}, msg.BackReply{}}}}
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
	if got := c.Get("n"); got != 8000 {
		t.Fatalf("n = %d, want 8000", got)
	}
	if got := c.Get("m"); got != 999 {
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
