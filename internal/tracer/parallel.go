package tracer

import (
	"cmp"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"backtrace/internal/heap"
	"backtrace/internal/ids"
	"backtrace/internal/refs"
)

// This file implements the forward mark of every full local trace: a
// work-stealing relaxation over a paged mark table. With one worker it runs
// inline on the caller's goroutine and is the sequential trace; more workers
// only split the same work.
//
// Why it computes the paper's trace: the forward mark of Sections 2–3
// processes roots in ascending distance order with single marking, so an
// object's mark is the MINIMUM root distance over the roots that reach it,
// and an outref's distance is one plus the minimum final mark over the
// objects holding it (folded with the distance-1 application-root seeds).
// Both are minimum fixpoints of improve-only relaxation, and a fixpoint
// does not care about evaluation order: the mark runs that relaxation with
// a compare-and-swap minimum per object and re-queues an object whenever its
// mark improves, so every object is eventually scanned at its final mark and
// every outref sees one-plus-that. The merge sorts dead objects and missing
// outrefs and partitions marks by the heap-shard hash, so the Result is the
// same at every worker count and DeepEqual to the literal ascending-distance
// trace the tests keep as their oracle (reference_test.go). Only
// Stats.Steals depends on scheduling.
//
// The mark table (markTable) is paged like the heap it marks: one page of
// int64 per heap page, at the same shard and page number, storing
// distance+1 so the zero value means "unmarked". It is never copied out: the
// outset pass reads it in place, and the per-shard pass below emits only the
// dead objects and the marked count. Workers read the heap through its
// lock-free SlotFields, and CAS ids without checking heap membership first —
// marking a deleted or absent id in a page that exists is harmless, because
// scans look the object up (and skip it), the per-shard pass walks heap
// slots rather than marks, and the outset pass never suspects an id the heap
// does not hold, so phantom marks can't leak into the result. An id whose
// page does not exist has no mark slot at all and is skipped.

// markResult is the outcome of the forward marking phase.
type markResult struct {
	// outrefDist is the new estimated distance of each outref the trace
	// reached: one plus the minimum mark over the objects holding it
	// (Section 3).
	outrefDist map[ids.Ref]int
	// missingOutrefs lists remote references encountered in reachable
	// objects for which the outref table has no entry — a protocol
	// invariant violation surfaced for tests.
	missingOutrefs []ids.Ref
	// dead lists the heap objects the trace did not reach, ascending.
	dead []ids.ObjID
	// objectsTraced counts the heap objects the trace reached.
	objectsTraced int64
}

// parChunk is the granularity of work stealing: workers keep a private
// LIFO stack for locality and expose surplus in chunks of this size.
const parChunk = 256

// parEngine runs one relaxation to fixpoint over a set of workers.
type parEngine struct {
	workers []*parWorker
	// pending counts chunks published to deques and not yet fully
	// processed. A worker exits only when its private stack is empty, it
	// found nothing to pop or steal, and pending is zero; remaining work
	// then necessarily sits in some still-running worker's private stack,
	// and that worker cannot exit before draining it.
	pending atomic.Int64
	steals  atomic.Int64
	// scan processes one work item; it may push follow-up work on w.
	scan func(w *parWorker, obj ids.ObjID)
}

// parWorker is one mark worker: a private stack, a deque of stealable
// chunks, and per-worker accumulators merged deterministically afterwards.
type parWorker struct {
	eng   *parEngine
	id    int
	local []ids.ObjID

	mu     sync.Mutex
	chunks [][]ids.ObjID

	// outMin is the worker's running minimum of outref distances; the
	// merge folds all workers' minima together.
	outMin map[ids.Ref]int
}

func newParEngine(workers int, scan func(w *parWorker, obj ids.ObjID)) *parEngine {
	e := &parEngine{workers: make([]*parWorker, workers), scan: scan}
	for i := range e.workers {
		e.workers[i] = &parWorker{eng: e, id: i, outMin: make(map[ids.Ref]int)}
	}
	return e
}

// seed distributes initial work items round-robin across workers' private
// stacks. Must be called before run.
func (e *parEngine) seed(objs []ids.ObjID) {
	for i, obj := range objs {
		w := e.workers[i%len(e.workers)]
		w.local = append(w.local, obj)
	}
}

// run executes the relaxation to fixpoint and blocks until all workers
// exit. A single worker runs on the caller's goroutine.
func (e *parEngine) run() {
	if len(e.workers) == 1 {
		e.workers[0].run()
		return
	}
	var wg sync.WaitGroup
	for _, w := range e.workers {
		wg.Add(1)
		go func(w *parWorker) {
			defer wg.Done()
			w.run()
		}(w)
	}
	wg.Wait()
}

// push adds a work item to the worker's private stack, publishing a
// stealable chunk when the stack grows past four chunks' worth (a lone
// worker has nobody to publish to and keeps a plain stack).
func (w *parWorker) push(obj ids.ObjID) {
	w.local = append(w.local, obj)
	if len(w.local) >= 4*parChunk && len(w.eng.workers) > 1 {
		n := len(w.local)
		c := make([]ids.ObjID, parChunk)
		copy(c, w.local[n-parChunk:])
		w.local = w.local[:n-parChunk]
		w.eng.pending.Add(1)
		w.mu.Lock()
		w.chunks = append(w.chunks, c)
		w.mu.Unlock()
	}
}

func (w *parWorker) popOwn() []ids.ObjID {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n := len(w.chunks); n > 0 {
		c := w.chunks[n-1]
		w.chunks = w.chunks[:n-1]
		return c
	}
	return nil
}

// stealFrom takes the victim's oldest chunk (FIFO end — the opposite end
// from the victim's own pops, minimizing contention and stealing the
// largest subtrees first).
func (w *parWorker) stealFrom(v *parWorker) []ids.ObjID {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.chunks) > 0 {
		c := v.chunks[0]
		v.chunks = v.chunks[1:]
		return c
	}
	return nil
}

func (w *parWorker) run() {
	e := w.eng
	for {
		if n := len(w.local); n > 0 {
			obj := w.local[n-1]
			w.local = w.local[:n-1]
			e.scan(w, obj)
			continue
		}
		if c := w.popOwn(); c != nil {
			w.processChunk(c)
			continue
		}
		if c := w.stealAny(); c != nil {
			e.steals.Add(1)
			w.processChunk(c)
			continue
		}
		if e.pending.Load() == 0 {
			return
		}
		runtime.Gosched()
	}
}

func (w *parWorker) stealAny() []ids.ObjID {
	n := len(w.eng.workers)
	for i := 1; i < n; i++ {
		if c := w.stealFrom(w.eng.workers[(w.id+i)%n]); c != nil {
			return c
		}
	}
	return nil
}

func (w *parWorker) processChunk(c []ids.ObjID) {
	for _, obj := range c {
		w.eng.scan(w, obj)
	}
	w.eng.pending.Add(-1)
}

// casMin lowers *addr to v if v improves on the current value (0 means
// unset). It reports whether it improved — the caller must then re-queue
// the object so it is rescanned at the new, lower mark.
func casMin(addr *int64, v int64) bool {
	for {
		old := atomic.LoadInt64(addr)
		if old != 0 && old <= v {
			return false
		}
		if atomic.CompareAndSwapInt64(addr, old, v) {
			return true
		}
	}
}

// parallelMark runs the work-stealing relaxation and returns the merged
// mark result plus the steal count.
func (t *Tracer) parallelMark(h *heap.Heap, tbl *refs.Table, workers int) (*markResult, int64) {
	marks := &t.marks
	marks.reset(h)
	site := h.Site()

	// Collect roots and seed the mark table; duplicate seeds of one object
	// are fine (rescans are idempotent).
	var seeds []ids.ObjID
	seedMark := func(obj ids.ObjID, dist int) {
		if p := marks.at(h.Locate(obj)); p != nil && casMin(p, int64(dist)+1) {
			seeds = append(seeds, obj)
		}
	}
	for _, obj := range h.PersistentRoots() {
		seedMark(obj, 0)
	}
	// A variable holding a remote reference is a root one inter-site hop
	// from its target: it seeds the outref's distance at 1, folded into the
	// final minimum merge.
	appSeeds := make(map[ids.Ref]int)
	for _, r := range h.AppRoots() {
		if r.Site == site {
			seedMark(r.Obj, 0)
		} else {
			appSeeds[r] = 1
		}
	}
	for _, in := range tbl.Inrefs() {
		if in.Garbage {
			continue
		}
		seedMark(in.Obj, in.Distance())
	}

	eng := newParEngine(workers, func(w *parWorker, obj ids.ObjID) {
		shard, local := h.Locate(obj)
		fields, ok := h.SlotFields(shard, local)
		if !ok {
			return // phantom mark: id not (or no longer) in the heap
		}
		enc := atomic.LoadInt64(marks.at(shard, local))
		d := int(enc - 1)
		for _, f := range fields {
			if f.IsZero() {
				continue
			}
			if f.Site == site {
				if p := marks.at(h.Locate(f.Obj)); p != nil && casMin(p, enc) {
					w.push(f.Obj)
				}
				continue
			}
			nd := refs.AddDist(d, 1)
			if cur, ok := w.outMin[f]; !ok || nd < cur {
				w.outMin[f] = nd
			}
		}
	})
	// Workers pop their stacks from the end, so seeding in descending
	// distance order traces the roots in ascending order — the paper's
	// order. One worker then finishes each root's cone before the next
	// root, so an object's first mark is its final one and nothing is
	// re-queued; more workers re-queue only where their cones overlap.
	slices.SortFunc(seeds, func(a, b ids.ObjID) int { return cmp.Compare(marks.load(h, b), marks.load(h, a)) })
	eng.seed(seeds)
	eng.run()

	res := &markResult{outrefDist: make(map[ids.Ref]int)}
	for r, d := range appSeeds {
		res.outrefDist[r] = d
	}
	for _, w := range eng.workers {
		for r, d := range w.outMin {
			if cur, ok := res.outrefDist[r]; !ok || d < cur {
				res.outrefDist[r] = d
			}
		}
	}
	for r := range res.outrefDist {
		if _, ok := tbl.Outref(r); !ok {
			res.missingOutrefs = append(res.missingOutrefs, r)
		}
	}
	sort.Slice(res.missingOutrefs, func(i, j int) bool {
		return res.missingOutrefs[i].Less(res.missingOutrefs[j])
	})

	// Walk the heap's pages one shard at a time (inline for one worker,
	// else a goroutine per shard): unmarked objects are the dead, marked
	// ones are only counted. Only slots holding objects are consulted,
	// which filters the phantom marks.
	dead := make([][]ids.ObjID, h.NumShards())
	traced := make([]int64, h.NumShards())
	tally := func(i int) {
		h.EachObjectInShard(i, func(id ids.ObjID, local uint64) {
			if *marks.at(i, local) != 0 {
				traced[i]++
			} else {
				dead[i] = append(dead[i], id)
			}
		})
	}
	if workers == 1 {
		for i := range dead {
			tally(i)
		}
	} else {
		var wg sync.WaitGroup
		for i := range dead {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				tally(i)
			}(i)
		}
		wg.Wait()
	}
	for _, n := range traced {
		res.objectsTraced += n
	}
	for _, part := range dead {
		res.dead = append(res.dead, part...)
	}
	slices.Sort(res.dead)
	return res, eng.steals.Load()
}

// markTable is a trace's mark table, paged like the heap it marks: per heap
// shard, a directory of mark pages with the heap shard's base and length,
// holding a page exactly where the heap holds one. Its size follows the
// heap's directory (live pages plus a pointer per page number of live
// span), not the ids ever allocated.
type markTable struct {
	shards []markShard
}

type markShard struct {
	base  int
	pages []*markPage
}

type markPage [heap.PageSlots]int64

// reset fits the table to h's pages and zeroes it. A page the heap still
// holds keeps its mark page, cleared; a page the heap no longer holds loses
// its mark page, uncleared.
func (m *markTable) reset(h *heap.Heap) {
	if len(m.shards) != h.NumShards() {
		m.shards = make([]markShard, h.NumShards())
	}
	for i := range m.shards {
		ms := &m.shards[i]
		base, n := h.PageSpan(i)
		if base != ms.base || n != len(ms.pages) {
			pages := make([]*markPage, n)
			for j, p := range ms.pages {
				if k := ms.base + j - base; k >= 0 && k < n {
					pages[k] = p
				}
			}
			ms.base, ms.pages = base, pages
		}
		for j, p := range ms.pages {
			switch {
			case !h.HasPage(i, base+j):
				ms.pages[j] = nil
			case p == nil:
				ms.pages[j] = new(markPage)
			default:
				clear(p[:])
			}
		}
	}
}

// at returns the mark slot of the object at a heap.Locate position, or nil
// when the heap has no page there.
func (m *markTable) at(shard int, local uint64) *int64 {
	ms := &m.shards[shard]
	j := int(local>>heap.PageBits) - ms.base
	if uint(j) >= uint(len(ms.pages)) || ms.pages[j] == nil {
		return nil
	}
	return &ms.pages[j][local&(heap.PageSlots-1)]
}

// load returns obj's mark (distance+1, or zero when unmarked).
func (m *markTable) load(h *heap.Heap, obj ids.ObjID) int64 {
	if p := m.at(h.Locate(obj)); p != nil {
		return *p
	}
	return 0
}
