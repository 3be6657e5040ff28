// Wall-clock benchmarks of the local trace and of the site drivers, which
// EXPERIMENTS.md C12 and C16 quote. The experiment tables themselves print
// from the internal/experiments tests (go test ./internal/experiments -v).
//
// Run with:
//
//	go test -run '^$' -bench=. -benchmem
package backtrace_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"backtrace"
	"backtrace/internal/cluster"
	"backtrace/internal/heap"
	"backtrace/internal/ids"
	"backtrace/internal/refs"
	"backtrace/internal/site"
	"backtrace/internal/tracer"
	"backtrace/internal/transport"
)

func addSuspectOutref(h *heap.Heap, tbl *refs.Table, from backtrace.Ref) {
	out := backtrace.MakeRef(2, 1)
	if err := h.AddField(from.Obj, out); err != nil {
		panic(err)
	}
	tbl.EnsureOutref(out)
	if o, ok := tbl.Outref(out); ok {
		o.Distance = 100
		o.Barrier = false
	}
}

// BenchmarkLocalTrace measures the forward mark + outset computation on
// random clustered graphs of growing size (the per-round cost every scheme
// pays).
func BenchmarkLocalTrace(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("objs-%d", n), func(b *testing.B) {
			h := heap.New(1)
			tbl := refs.NewTable(1, 1<<20)
			refsArr := make([]backtrace.Ref, n)
			for i := range refsArr {
				refsArr[i] = h.Alloc()
			}
			if err := h.MarkPersistentRoot(refsArr[0].Obj); err != nil {
				b.Fatal(err)
			}
			for i := 1; i < n; i++ {
				if err := h.AddField(refsArr[i/2].Obj, refsArr[i]); err != nil {
					b.Fatal(err)
				}
			}
			// Ten suspected inrefs over subtrees plus remote edges.
			for i := 0; i < 10; i++ {
				tbl.AddSource(refsArr[n/2+i].Obj, 2)
				tbl.SetSourceDistance(refsArr[n/2+i].Obj, 2, 100)
				addSuspectOutref(h, tbl, refsArr[n-1-i])
			}
			var tr tracer.Tracer
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := tr.Run(h, tbl, 3, tracer.AlgoBottomUp)
				if len(res.Dead) != 0 {
					b.Fatal("unexpected garbage")
				}
			}
			b.ReportMetric(float64(n), "objects")
		})
	}
}

// BenchmarkParallelSites (experiment C12) measures one churn+collect round
// on a 4-site cluster under the two round drivers: sites stepped serially
// versus the pipelined architecture (mailbox executors, goroutine per site).
// Same heaps, same churn, same network, same off-lock local trace — the
// ratio of the two ns/op figures is the multi-core speedup of the driver.
func BenchmarkParallelSites(b *testing.B) {
	const (
		numSites     = 4
		liveObjs     = 20000 // per-site live chain the trace must mark
		churnPerSite = 500   // objects allocated and orphaned per round
	)
	for _, pipelined := range []bool{false, true} {
		name := "serial"
		if pipelined {
			name = "pipelined-parallel"
		}
		b.Run(name, func(b *testing.B) {
			c := cluster.New(cluster.Options{
				NumSites: numSites,
				Async:    true,
				Parallel: pipelined,
				Site: site.Config{
					SuspicionThreshold: 3,
					BackThreshold:      1 << 20, // no back traces: isolate trace+churn cost
				},
			})
			defer c.Close()

			roots := make([]backtrace.Ref, numSites)
			for i := 0; i < numSites; i++ {
				s := c.Site(backtrace.SiteID(i + 1))
				roots[i] = s.NewRootObject()
				prev := roots[i]
				for j := 0; j < liveObjs; j++ {
					o := s.NewObject()
					if err := s.AddReference(prev.Obj, o); err != nil {
						b.Fatal(err)
					}
					prev = o
				}
			}
			// A live cross-site ring among the roots keeps update traffic
			// flowing through the network each round.
			for i := range roots {
				c.MustLink(roots[i], roots[(i+1)%numSites])
			}

			churn := func(s *site.Site, root backtrace.Ref) {
				for j := 0; j < churnPerSite; j++ {
					o := s.NewObject()
					if err := s.AddReference(root.Obj, o); err != nil {
						panic(err)
					}
					if err := s.RemoveReference(root.Obj, o); err != nil {
						panic(err)
					}
				}
			}

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if pipelined {
					var wg sync.WaitGroup
					for j := 0; j < numSites; j++ {
						wg.Add(1)
						go func(j int) {
							defer wg.Done()
							churn(c.Site(backtrace.SiteID(j+1)), roots[j])
						}(j)
					}
					wg.Wait()
				} else {
					for j := 0; j < numSites; j++ {
						churn(c.Site(backtrace.SiteID(j+1)), roots[j])
					}
				}
				c.RunRound()
			}
			b.StopTimer()
			b.ReportMetric(float64(numSites*churnPerSite), "churn-objs/op")
		})
	}
}

// BenchmarkOffLockTrace (experiment C12) measures mutator latency on a site
// whose collector is continuously tracing a large heap. The trace computes
// off the site lock, so the mutator only waits for the short snapshot and
// commit critical sections. The headline metric is stalled-pct — the share
// of mutator wall time spent in operations that blocked for at least a
// millisecond (critical sections plus scheduler noise). max-stall-ms is the
// worst single operation; trace-ms reports the mean trace computation time,
// which is what stays off the mutator's critical path.
func BenchmarkOffLockTrace(b *testing.B) {
	const liveObjs = 20000
	net := transport.NewNet(transport.Options{})
	defer net.Close()
	s := site.New(site.Config{
		ID:                 1,
		Network:            net,
		SuspicionThreshold: 3,
		BackThreshold:      1 << 20,
	})
	defer s.Close()
	root := s.NewRootObject()
	prev := root
	for j := 0; j < liveObjs; j++ {
		o := s.NewObject()
		if err := s.AddReference(prev.Obj, o); err != nil {
			b.Fatal(err)
		}
		prev = o
	}
	// The mutator toggles an extra edge to an always-live object;
	// allocation is kept out of the op because an object is only
	// safe from the sweep once it is linked or held.
	target, err := s.Fields(root.Obj)
	if err != nil || len(target) == 0 {
		b.Fatal("root has no fields")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var traces, traceNanos int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rep := s.RunLocalTrace()
			atomic.AddInt64(&traces, 1)
			atomic.AddInt64(&traceNanos, int64(rep.Stats.Duration))
		}
	}()

	var maxStall, stalled, elapsed time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opStart := time.Now()
		if err := s.AddReference(root.Obj, target[0]); err != nil {
			b.Fatal(err)
		}
		if err := s.RemoveReference(root.Obj, target[0]); err != nil {
			b.Fatal(err)
		}
		d := time.Since(opStart)
		elapsed += d
		if d > maxStall {
			maxStall = d
		}
		if d >= time.Millisecond {
			stalled += d
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	if elapsed > 0 {
		b.ReportMetric(float64(stalled)/float64(elapsed)*100, "stalled-pct")
	}
	b.ReportMetric(float64(maxStall)/1e6, "max-stall-ms")
	if n := atomic.LoadInt64(&traces); n > 0 {
		b.ReportMetric(float64(traceNanos)/float64(n)/1e6, "trace-ms")
	}
}

// BenchmarkMillionObjectTrace (experiment C16) measures the full local trace
// on a million-object heap: a wide 8-ary live tree, a garbage tail
// (the dead sweep runs), suspected inrefs and outrefs (the outset and
// distance phases run). Before timing, the trace of a Tracer whose mark
// table was already used must equal a fresh Tracer's, and reach exactly the
// live tree.
func BenchmarkMillionObjectTrace(b *testing.B) {
	const objects = 1 << 20
	h := heap.New(1)
	tbl := refs.NewTable(1, 1<<20)
	live := objects * 9 / 10
	objs := make([]backtrace.Ref, 0, live)
	objs = append(objs, h.AllocRoot())
	for len(objs) < live {
		o := h.Alloc()
		if err := h.AddField(objs[(len(objs)-1)/8].Obj, o); err != nil {
			b.Fatal(err)
		}
		objs = append(objs, o)
	}
	var prev backtrace.Ref
	for i := live; i < objects; i++ {
		o := h.Alloc()
		if !prev.IsZero() {
			if err := h.AddField(prev.Obj, o); err != nil {
				b.Fatal(err)
			}
		}
		prev = o
	}
	for i := 0; i < 10; i++ {
		tbl.AddSource(objs[live/10+i].Obj, 2)
		tbl.SetSourceDistance(objs[live/10+i].Obj, 2, 100)
		addSuspectOutref(h, tbl, objs[live-1-i])
	}

	baseline := new(tracer.Tracer).Run(h, tbl, 3, tracer.AlgoBottomUp)
	if baseline.Stats.ObjectsTraced != int64(live) {
		b.Fatalf("traced %d, want %d", baseline.Stats.ObjectsTraced, live)
	}
	var tr tracer.Tracer
	tr.Run(h, tbl, 3, tracer.AlgoBottomUp)
	if !tracer.EqualResults(tr.Run(h, tbl, 3, tracer.AlgoBottomUp), baseline) {
		b.Fatal("a reused mark table's trace diverges from a fresh one's")
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := tr.Run(h, tbl, 3, tracer.AlgoBottomUp)
		if len(res.Dead) != objects-live {
			b.Fatalf("dead %d, want %d", len(res.Dead), objects-live)
		}
	}
	b.ReportMetric(float64(objects), "objects")
}

// BenchmarkSnapshotTrace (experiment C16) times the local trace a site
// actually runs: the cut takes a frozen heap view (heap.Snapshot, the page
// directory and roots) and patches the ioref tables' shadow from their
// dirty sets, then the marker traces the cut; snapshot-ms times the cut,
// mark-ms and outsets-ms split the trace as tracer.Stats does, and
// copied-pages counts the pages the edits' write barrier cloned because
// the previous view held them (the edits themselves are untimed). The heap
// is one hypertext-edit site: a root directory over 100 tables of
// contents, each over 499 pages chained page to page and citing 5 remote
// documents, plus 8 garbage documents (a table of contents and 32 pages
// pointing back at it, the last citing a remote document) held only by
// suspected inrefs. Every iteration
// first applies, untimed, a batch of 200 link edits between random pages,
// the benchmark mutator's edit: add a link, and once 256 are outstanding
// remove the oldest one as well.
func BenchmarkSnapshotTrace(b *testing.B) {
	const (
		docs, pages, cites = 100, 499, 5
		garbageDocs        = 8
		edits, linksKept   = 200, 256
	)
	h := heap.New(1)
	tbl := refs.NewTable(1, 1<<20)
	rng := rand.New(rand.NewSource(1))
	link := func(from, to backtrace.Ref) {
		if err := h.AddField(from.Obj, to); err != nil {
			b.Fatal(err)
		}
		if to.Site != 1 {
			tbl.EnsureOutref(to)
		}
	}
	cite := func() backtrace.Ref {
		return backtrace.MakeRef(ids.SiteID(2+rng.Intn(3)), ids.ObjID(1+rng.Intn(docs*(pages+1))))
	}
	dir := h.AllocRoot()
	var editable []backtrace.Ref
	for d := 0; d < docs; d++ {
		toc := h.Alloc()
		link(dir, toc)
		var prev backtrace.Ref
		for p := 0; p < pages; p++ {
			page := h.Alloc()
			link(toc, page)
			if !prev.IsZero() {
				link(prev, page)
			}
			prev = page
			editable = append(editable, page)
		}
		for c := 0; c < cites; c++ {
			link(toc, cite())
		}
	}
	for g := 0; g < garbageDocs; g++ {
		toc := h.Alloc()
		tbl.AddSource(toc.Obj, 2)
		tbl.SetSourceDistance(toc.Obj, 2, 5)
		var last backtrace.Ref
		for p := 0; p < 32; p++ {
			last = h.Alloc()
			link(toc, last)
			link(last, toc)
		}
		link(last, cite())
	}
	var tr tracer.Tracer
	tr.Run(h.Snapshot(), tbl.TraceSnapshot(), 3, tracer.AlgoBottomUp)
	copied := h.PagesCopied()

	var added [][2]backtrace.Ref
	var snapshot, mark, outsets time.Duration
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for e := 0; e < edits; e++ {
			if len(added) >= linksKept {
				l := added[0]
				added = added[1:]
				if _, err := h.RemoveField(l[0].Obj, l[1]); err != nil {
					b.Fatal(err)
				}
			}
			l := [2]backtrace.Ref{editable[rng.Intn(len(editable))], editable[rng.Intn(len(editable))]}
			link(l[0], l[1])
			added = append(added, l)
		}
		b.StartTimer()
		t0 := time.Now()
		hs, ts := h.Snapshot(), tbl.TraceSnapshot()
		snapshot += time.Since(t0)
		res := tr.Run(hs, ts, 3, tracer.AlgoBottomUp)
		if len(res.Dead) != 0 {
			b.Fatalf("dead %d, want 0: the garbage documents are held by inrefs", len(res.Dead))
		}
		mark += res.Stats.MarkDuration
		outsets += res.Stats.OutsetsDuration
	}
	b.ReportMetric(float64(h.Len()), "objects")
	b.ReportMetric(float64(snapshot)/1e6/float64(b.N), "snapshot-ms/op")
	b.ReportMetric(float64(mark)/1e6/float64(b.N), "mark-ms/op")
	b.ReportMetric(float64(outsets)/1e6/float64(b.N), "outsets-ms/op")
	b.ReportMetric(float64(h.PagesCopied()-copied)/float64(b.N), "copied-pages/op")
}
