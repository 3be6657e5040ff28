package main

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"backtrace/internal/cluster"
	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/obs"
	"backtrace/internal/site"
)

func TestParsePeers(t *testing.T) {
	addrs, err := parsePeers("1=host1:7001, 2=host2:7002,3=:7003")
	if err != nil {
		t.Fatal(err)
	}
	want := map[ids.SiteID]string{1: "host1:7001", 2: "host2:7002", 3: ":7003"}
	if len(addrs) != len(want) {
		t.Fatalf("addrs = %v", addrs)
	}
	for id, addr := range want {
		if addrs[id] != addr {
			t.Errorf("addrs[%v] = %q, want %q", id, addrs[id], addr)
		}
	}
}

func TestParsePeersEmpty(t *testing.T) {
	addrs, err := parsePeers("")
	if err != nil || len(addrs) != 0 {
		t.Fatalf("empty list: %v, %v", addrs, err)
	}
}

func TestParsePeersErrors(t *testing.T) {
	for _, bad := range []string{"nonsense", "x=host:1", "1", "=addr"} {
		if _, err := parsePeers(bad); err == nil {
			t.Errorf("parsePeers(%q) accepted", bad)
		}
	}
}

func TestRunDemoSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP demo skipped in -short mode")
	}
	if err := runDemo(2, false, site.Config{InboxSize: 4}, "", 0); err != nil { // small inbox: mailbox path over TCP
		t.Fatal(err)
	}
}

func TestRunDemoReliableSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP demo skipped in -short mode")
	}
	if err := runDemo(2, true, site.Config{}, "", 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunDemoShardedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP demo skipped in -short mode")
	}
	// Mailbox executors must collect the same demo cycle over real TCP.
	// (The name is from when this ran with hash-partitioned heaps.)
	if err := runDemo(2, false, site.Config{InboxSize: 4}, "", 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunDemoBatchedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP demo skipped in -short mode")
	}
	// The node workloads' shape over real TCP: the binary codec, the
	// batching session layer and mailbox executors of the default
	// parallel inbox size must collect the demo cycle end to end.
	if err := runDemo(2, true, site.Config{InboxSize: cluster.DefaultInboxSize}, "", 0); err != nil {
		t.Fatal(err)
	}
}

func TestDebugServerServesMetrics(t *testing.T) {
	counters := &metrics.Counters{}
	counters.Inc("msg.total")
	counters.Registry().Histogram(obs.MetricBackTraceRTT, "rtt", nil).Observe(0.002)
	counters.Registry().Gauge(obs.MetricMailboxDepth, "depth").Set(3)

	addr, stop, err := startDebugServer("127.0.0.1:0",
		counters.Registry(), obs.NewCollector(obs.CollectorOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"msg_total 1",
		"backtrace_rtt_seconds_count 1",
		"mailbox_depth 3",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	if resp, err = http.Get("http://" + addr + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("/healthz: %v %v", err, resp)
	}
	resp.Body.Close()
}
