package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"backtrace/internal/ids"
	"backtrace/internal/tracer"
)

// linkTimeout bounds how long a builder polls for one reference transfer.
const linkTimeout = 5 * time.Second

// linkChunk is how many reference transfers a builder keeps in flight on the
// node shape; the stepped shape links one at a time, like cluster.Link.
const linkChunk = 64

// planted is one garbage structure the generator made and is waiting to see
// swept.
type planted struct {
	members      []ids.Ref
	createdAt    time.Time
	createdRound int32
	next         int // members[:next] are known swept
}

// sweep is one garbage-created → swept observation.
type sweep struct {
	latency time.Duration
	rounds  int
	objects int
}

// slice is one stretch of the measured window — a second of a node window,
// a whole wave of storm. Rates are computed per slice and reported as the
// median over slices, so a burst of interference from outside the process
// moves one slice, not the metric.
type slice struct {
	seconds float64
	cpuS    float64
	objects float64 // garbage objects swept
}

// tally accumulates what the harness observed inside the measured window.
type tally struct {
	slices     []slice
	sweeps     []sweep
	linkUs     []float64
	mutSvcUs   []float64 // mutator op service time (issue → done)
	mutLatUs   []float64 // mutator op latency from its due time
	mutLateUs  []float64 // how late the generator issued ops
	snapshotNs []float64 // BeginLocalTrace minus Stats.Duration
	computeNs  []float64 // Stats.Duration
	commitNs   []float64
	fallbacks  map[string]int
	ckptMs     []float64
	ckptBytes  int

	linkAttempts int
	linkTimeouts int
	mutOps       int
	mutErrors    int
	expired      int
}

// load drives one cluster: the collector rounds, the garbage maker G and the
// live mutator M.
type load struct {
	c   *cluster
	w   *workloadDef
	rec *recorder

	live     *plan
	liveRefs []ids.Ref

	round     atomic.Int32
	measuring atomic.Bool

	mu          sync.Mutex
	t           tally
	outstanding []*planted
	late        []*planted // expired but not yet seen swept
	need        int        // structures G still has to plant
	swept       int        // structures seen swept since the load started
	nextIdx     int
	stopped     bool // G must not plant any more
	// cur is the open slice; sliceLen is its target length (zero: the
	// slice runs until the window closes).
	cur      slice
	curStart time.Time
	curCPU   time.Duration
	sliceLen time.Duration

	wake chan struct{} // nudges G; capacity 1: a pending nudge is enough
	rngG *rand.Rand
	rngM *rand.Rand
}

func newLoad(c *cluster, w *workloadDef, seed int64, rec *recorder) *load {
	return &load{
		c: c, w: w, rec: rec,
		wake: make(chan struct{}, 1),
		rngG: rand.New(rand.NewSource(seed*7919 + 1)),
		rngM: rand.New(rand.NewSource(seed*7919 + 2)),
		t:    tally{fallbacks: map[string]int{}},
	}
}

// --- building graphs through the real protocol ------------------------------

// xedge is one cross-site reference transfer: to is sent to from's site and
// stored into from; copies lists further objects of that site that get the
// same reference by a local copy once the transfer has landed.
type xedge struct {
	pi       int // index of the plan it belongs to
	from, to ids.Ref
	copies   []ids.Ref
	issued   time.Time
	end      func()
}

// build instantiates plans on the cluster. Members are allocated held (an
// application root each) unless they are persistent roots of a live plan;
// local edges are plain AddReference calls, cross-site edges go through
// SendRef → poll AddReference → DropAppRoot. A reference is transferred to a
// site once: further holders on that site copy it locally, as a mutator that
// already has the reference would. With held set the holds are
// dropped at the end, structure by structure, and each structure is returned
// stamped garbage-created at its last drop. A link that times out abandons
// its structure (holds dropped, not returned).
func (ld *load) build(plans []*plan, held bool) ([][]ids.Ref, []*planted, error) {
	all := make([][]ids.Ref, len(plans))
	broken := make([]bool, len(plans))
	var cross []*xedge
	type arrival struct {
		site ids.SiteID
		to   ids.Ref
	}
	first := map[arrival]*xedge{}
	for pi, p := range plans {
		refs := make([]ids.Ref, len(p.sites))
		for i, s := range p.sites {
			st := ld.c.site(s)
			switch {
			case p.roots[i]:
				refs[i] = st.NewRootObject()
			case held:
				refs[i] = st.NewHeldObject()
			default:
				refs[i] = st.NewObject()
			}
		}
		all[pi] = refs
		for _, e := range p.edges {
			from, to := refs[e[0]], refs[e[1]]
			if from.Site != to.Site {
				if x := first[arrival{from.Site, to}]; x != nil {
					x.copies = append(x.copies, from)
					continue
				}
				x := &xedge{pi: pi, from: from, to: to}
				first[arrival{from.Site, to}] = x
				cross = append(cross, x)
				continue
			}
			if err := ld.c.site(from.Site).AddReference(from.Obj, to); err != nil {
				return nil, nil, fmt.Errorf("build: local edge: %w", err)
			}
		}
	}
	chunk := linkChunk
	if ld.c.step != nil {
		chunk = 1
	}
	for len(cross) > 0 {
		pending := append([]*xedge(nil), cross[:min(chunk, len(cross))]...)
		cross = cross[len(pending):]
		for _, x := range pending {
			x.end = ld.rec.begin(spanLink, x.to.Site)
			x.issued = time.Now()
			if err := ld.c.site(x.to.Site).SendRef(x.from.Site, x.to); err != nil {
				return nil, nil, fmt.Errorf("build: send ref: %w", err)
			}
		}
		deadline := time.Now().Add(linkTimeout)
		for len(pending) > 0 {
			ld.c.pump()
			kept := pending[:0]
			for _, x := range pending {
				holder := ld.c.site(x.from.Site)
				if err := holder.AddReference(x.from.Obj, x.to); err != nil {
					kept = append(kept, x)
					continue
				}
				x.end()
				ld.noteLink(time.Since(x.issued), false)
				for _, c := range x.copies {
					if err := holder.AddReference(c.Obj, x.to); err != nil {
						return nil, nil, fmt.Errorf("build: local copy: %w", err)
					}
				}
				holder.DropAppRoot(x.to)
			}
			pending = kept
			if len(pending) > 0 && time.Now().After(deadline) {
				for _, x := range pending {
					x.end()
					broken[x.pi] = true
					ld.noteLink(0, true)
				}
				break
			}
		}
	}
	if !held {
		return all, nil, nil
	}
	var out []*planted
	for pi, refs := range all {
		for _, r := range refs {
			ld.c.site(r.Site).DropAppRoot(r)
		}
		if broken[pi] {
			continue
		}
		out = append(out, &planted{members: refs, createdAt: time.Now(), createdRound: ld.round.Load()})
	}
	return all, out, nil
}

func (ld *load) noteLink(d time.Duration, timedOut bool) {
	if !ld.measuring.Load() {
		return
	}
	ld.mu.Lock()
	ld.t.linkAttempts++
	if timedOut {
		ld.t.linkTimeouts++
	} else {
		ld.t.linkUs = append(ld.t.linkUs, float64(d)/1e3)
	}
	ld.mu.Unlock()
}

// buildLive plants the live graph (no collector is running yet, so unheld
// allocation is safe) and remembers every live object for the oracle.
func (ld *load) buildLive(seed int64) error {
	ld.live = ld.w.live(rand.New(rand.NewSource(seed*7919 + 3)))
	all, _, err := ld.build([]*plan{ld.live}, false)
	if err != nil {
		return err
	}
	ld.liveRefs = all[0]
	return nil
}

// plant builds n garbage structures as one pipelined batch and hands them to
// the sweep watcher.
func (ld *load) plant(n int) error {
	plans := make([]*plan, n)
	for i := range plans {
		plans[i] = ld.w.garbage(ld.rngG, ld.nextIdx)
		ld.nextIdx++
	}
	_, made, err := ld.build(plans, true)
	if err != nil {
		return err
	}
	ld.mu.Lock()
	ld.outstanding = append(ld.outstanding, made...)
	// A structure abandoned on a link timeout is replanted.
	if !ld.stopped {
		ld.need += n - len(made)
	}
	ld.mu.Unlock()
	return nil
}

// gardener is G: it keeps w.k structures outstanding, replacing each one the
// sweep watcher reports gone. It returns when stopped.
func (ld *load) gardener() error {
	for range ld.wake {
		for {
			ld.mu.Lock()
			n := ld.need
			ld.need = 0
			stopped := ld.stopped
			ld.mu.Unlock()
			if stopped {
				return nil
			}
			if n == 0 {
				break
			}
			if err := ld.plant(n); err != nil {
				return err
			}
		}
	}
	return nil
}

func (ld *load) nudge() {
	select {
	case ld.wake <- struct{}{}:
	default:
	}
}

// --- the live mutator M ----------------------------------------------------------

// mutOp is one local edit on live objects: add a link between two editable
// objects of one site, or remove the oldest link M itself added. Only M's
// own links are ever removed, so every live object stays reachable.
type mutator struct {
	ld    *load
	added [][2]ids.Ref
	ops   int
}

const mutLinksKept = 256

func (m *mutator) op() error {
	m.ops++
	if len(m.added) >= mutLinksKept && m.ops%2 == 0 {
		l := m.added[0]
		m.added = m.added[1:]
		return m.ld.c.site(l[0].Site).RemoveReference(l[0].Obj, l[1])
	}
	ld := m.ld
	s := ld.w.mutSites[ld.rngM.Intn(len(ld.w.mutSites))]
	pool := ld.live.editable[s]
	a := ld.liveRefs[pool[ld.rngM.Intn(len(pool))]]
	b := ld.liveRefs[pool[ld.rngM.Intn(len(pool))]]
	m.added = append(m.added, [2]ids.Ref{a, b})
	return ld.c.site(s).AddReference(a.Obj, b)
}

// timed runs one op and records it against the time it was due. late is how
// long after its due time the generator itself was ready to issue it.
func (m *mutator) timed(due time.Time, late time.Duration) {
	end := m.ld.rec.begin(spanMutatorOp, 0)
	start := time.Now()
	err := m.op()
	done := time.Now()
	end()
	ld := m.ld
	if !ld.measuring.Load() {
		return
	}
	ld.mu.Lock()
	ld.t.mutOps++
	if err != nil {
		ld.t.mutErrors++
	}
	ld.t.mutSvcUs = append(ld.t.mutSvcUs, float64(done.Sub(start))/1e3)
	ld.t.mutLatUs = append(ld.t.mutLatUs, float64(done.Sub(due))/1e3)
	ld.t.mutLateUs = append(ld.t.mutLateUs, float64(late)/1e3)
	ld.mu.Unlock()
}

// run paces ops open loop at w.mutRate per second until stop closes. Each op
// is due on a fixed schedule and timed from its due time, so a stall delays
// (and is charged to) every op queued behind it. An op that fell due while
// the generator was asleep in its timer is timed from the wake-up instead:
// the runtime's timer granularity is the generator's lateness, reported
// apart, not the collector's doing.
func (m *mutator) run(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	interval := time.Second / time.Duration(m.ld.w.mutRate)
	due := time.Now()
	woke := due
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for {
		due = due.Add(interval)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return
			case <-timer.C:
			}
			woke = time.Now()
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		if woke.After(due) {
			m.timed(woke, woke.Sub(due))
		} else {
			m.timed(due, 0)
		}
	}
}

// --- the collector ---------------------------------------------------------------

// runRound steps every site through one local trace in id order, settles,
// and does the round-boundary work: the sweep watch and the periodic
// checkpoint. mut, when non-nil, is the stepped shape's inline mutator.
func (ld *load) runRound(mut *mutator) {
	endRound := ld.rec.begin(spanRound, 0)
	for i, s := range ld.c.sites {
		id := ids.SiteID(i + 1)
		end := ld.rec.begin(spanSnapshot, id)
		t0 := time.Now()
		s.BeginLocalTrace()
		t1 := time.Now()
		end()
		end = ld.rec.begin(spanCommit, id)
		rep := s.CommitLocalTrace()
		t2 := time.Now()
		end()
		if ld.measuring.Load() {
			ld.noteTrace(t1.Sub(t0), t2.Sub(t1), rep.Stats)
		}
	}
	ld.c.settle()
	endRound()
	round := ld.round.Add(1)
	if ld.rec != nil {
		ld.rec.round.Store(round)
	}
	ld.watchSweeps(round)
	if ld.w.checkpointEvery > 0 && int(round)%ld.w.checkpointEvery == 0 {
		ld.checkpoint(1)
	}
	if mut != nil {
		for i := 0; i < ld.w.mutRate; i++ {
			mut.timed(time.Now(), 0)
		}
	}
}

func (ld *load) noteTrace(begin, commit time.Duration, st tracer.Stats) {
	ld.mu.Lock()
	ld.t.snapshotNs = append(ld.t.snapshotNs, float64(begin-st.Duration))
	ld.t.computeNs = append(ld.t.computeNs, float64(st.Duration))
	ld.t.commitNs = append(ld.t.commitNs, float64(commit))
	if !st.Incremental {
		ld.t.fallbacks[st.FallbackReason]++
	}
	ld.mu.Unlock()
}

// watchSweeps checks, at a round boundary, which planted structures are
// gone: a structure is swept once every member fails ContainsObject.
func (ld *load) watchSweeps(round int32) {
	now := time.Now()
	measuring := ld.measuring.Load()
	ld.mu.Lock()
	gone := func(p *planted) bool {
		for p.next < len(p.members) {
			m := p.members[p.next]
			if ld.c.site(m.Site).ContainsObject(m.Obj) {
				return false
			}
			p.next++
		}
		return true
	}
	replaced := 0
	kept := ld.outstanding[:0]
	for _, p := range ld.outstanding {
		switch {
		case gone(p):
			if measuring {
				ld.t.sweeps = append(ld.t.sweeps, sweep{
					latency: now.Sub(p.createdAt), rounds: int(round - p.createdRound),
					objects: len(p.members),
				})
				ld.cur.objects += float64(len(p.members))
			}
			ld.swept++
			replaced++
		case int(round-p.createdRound) > maxStructureAge:
			ld.late = append(ld.late, p)
			if measuring {
				ld.t.expired++
			}
			replaced++
		default:
			kept = append(kept, p)
		}
	}
	ld.outstanding = kept
	keptLate := ld.late[:0]
	for _, p := range ld.late {
		if !gone(p) {
			keptLate = append(keptLate, p)
		}
	}
	ld.late = keptLate
	if !ld.stopped {
		ld.need += replaced
	}
	rollSlice := measuring && ld.sliceLen > 0 && now.Sub(ld.curStart) >= ld.sliceLen
	ld.mu.Unlock()
	if replaced > 0 {
		ld.nudge()
	}
	if rollSlice {
		ld.closeSlice(now)
		ld.openSlice(now)
	}
}

// checkpoint serialises one site into memory, timing the call.
func (ld *load) checkpoint(id ids.SiteID) {
	var buf bytes.Buffer
	end := ld.rec.begin(spanCheckpoint, id)
	t0 := time.Now()
	err := ld.c.site(id).WriteCheckpoint(&buf)
	d := time.Since(t0)
	end()
	ld.mu.Lock()
	defer ld.mu.Unlock()
	if err != nil {
		ld.t.mutErrors++
		return
	}
	if ld.measuring.Load() {
		ld.t.ckptMs = append(ld.t.ckptMs, float64(d)/1e6)
		ld.t.ckptBytes = buf.Len()
	}
}

// openSlice starts a slice; closeSlice files the open one under the tally.
// Both run on the collector goroutine.
func (ld *load) openSlice(now time.Time) {
	ld.mu.Lock()
	ld.cur, ld.curStart, ld.curCPU = slice{}, now, cpuTime()
	ld.mu.Unlock()
}

func (ld *load) closeSlice(now time.Time) {
	ld.mu.Lock()
	ld.cur.seconds = now.Sub(ld.curStart).Seconds()
	ld.cur.cpuS = (cpuTime() - ld.curCPU).Seconds()
	ld.t.slices = append(ld.t.slices, ld.cur)
	ld.mu.Unlock()
}

func (ld *load) sweptTotal() int {
	ld.mu.Lock()
	defer ld.mu.Unlock()
	return ld.swept
}

// merge adds another window's observations to t.
func (t *tally) merge(o *tally) {
	t.slices = append(t.slices, o.slices...)
	t.sweeps = append(t.sweeps, o.sweeps...)
	t.linkUs = append(t.linkUs, o.linkUs...)
	t.mutSvcUs = append(t.mutSvcUs, o.mutSvcUs...)
	t.mutLatUs = append(t.mutLatUs, o.mutLatUs...)
	t.mutLateUs = append(t.mutLateUs, o.mutLateUs...)
	t.snapshotNs = append(t.snapshotNs, o.snapshotNs...)
	t.computeNs = append(t.computeNs, o.computeNs...)
	t.commitNs = append(t.commitNs, o.commitNs...)
	if t.fallbacks == nil {
		t.fallbacks = map[string]int{}
	}
	for k, v := range o.fallbacks {
		t.fallbacks[k] += v
	}
	t.ckptMs = append(t.ckptMs, o.ckptMs...)
	t.ckptBytes = max(t.ckptBytes, o.ckptBytes)
	t.linkAttempts += o.linkAttempts
	t.linkTimeouts += o.linkTimeouts
	t.mutOps += o.mutOps
	t.mutErrors += o.mutErrors
	t.expired += o.expired
}

func (ld *load) outstandingCount() (out, late int) {
	ld.mu.Lock()
	defer ld.mu.Unlock()
	return len(ld.outstanding), len(ld.late)
}
