package main

import (
	"fmt"
	"syscall"
	"time"

	"backtrace/internal/metrics"
)

// result is everything one measured window produced.
type result struct {
	w       *workloadDef
	windowS float64 // measured wall seconds
	cpuS    float64 // process user+sys CPU over the window
	rounds  int     // collection rounds inside the window
	waves   int     // storm only
	t       tally
	d       *regDelta
	setupS  []float64
	oracle  oracleReport
	// settleFailures counts round settles that timed out.
	settleFailures int
	rec            *recorder  // traced runs only
	units          *unitCosts // traced runs only
}

// sliceLen is the length of a node window's slices.
const sliceLen = time.Second

// warmupLimit bounds how long a set-up waits for the first generation of
// planted structures to be swept.
const warmupLimit = 30 * time.Second

// peakGauges are high-water marks; they are zeroed when a window opens so
// they report the window's peak, not the warm-up's.
var peakGauges = []string{
	metrics.MailboxDepthPeak, metrics.BackInfoPeak, metrics.BackTraceInflight,
	metrics.BackTraceBatchSize, metrics.WireBatchSize,
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// session is one set-up cluster with its load running.
type session struct {
	c     *cluster
	ld    *load
	stopM chan struct{}
	doneM chan struct{}
	errG  chan error
}

// startSession is the set-up the benchmark times: cluster up, live graph
// built through the protocol, first full traces done, load started, and the
// first generation of planted structures swept (so the window opens on a
// full pipeline).
func startSession(w *workloadDef, seed int64, rec *recorder) (*session, error) {
	c, err := newCluster(w.shape, rec)
	if err != nil {
		return nil, err
	}
	s := &session{c: c, ld: newLoad(c, w, seed, rec)}
	if c.step == nil {
		s.ld.sliceLen = sliceLen
	}
	if err := s.ld.buildLive(seed); err != nil {
		c.close()
		return nil, err
	}
	s.ld.runRound(nil)
	s.ld.runRound(nil)
	if c.step != nil {
		s.ld.stopped = true // the stepped shape has no load goroutines
		return s, nil
	}
	s.stopM, s.doneM, s.errG = make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() { s.errG <- s.ld.gardener() }()
	go (&mutator{ld: s.ld}).run(s.stopM, s.doneM)
	s.ld.mu.Lock()
	s.ld.need = w.k
	s.ld.mu.Unlock()
	s.ld.nudge()
	start := time.Now()
	for s.ld.sweptTotal() < w.k || s.ld.round.Load() < 12 {
		if time.Since(start) > warmupLimit {
			s.stop()
			c.close()
			return nil, fmt.Errorf("%s: warm-up swept %d of %d structures in %v", w.name, s.ld.sweptTotal(), w.k, warmupLimit)
		}
		s.ld.runRound(nil)
	}
	return s, nil
}

// stop ends M and G and waits for both.
func (s *session) stop() error {
	if s.stopM == nil {
		return nil
	}
	close(s.stopM)
	<-s.doneM
	s.ld.mu.Lock()
	s.ld.stopped = true
	s.ld.mu.Unlock()
	s.ld.nudge()
	s.stopM = nil
	return <-s.errG
}

// measure opens the window, runs body, and closes it, adding the window's
// wall time, CPU and registry delta to res.
func (s *session) measure(res *result, body func()) {
	for _, name := range peakGauges {
		s.c.reg.Gauge(name, "").Set(0)
	}
	before := s.c.reg.Snapshot()
	roundsBefore := s.ld.round.Load()
	if s.ld.rec != nil {
		s.ld.rec.on.Store(true)
	}
	cpu0, t0 := cpuTime(), time.Now()
	s.ld.openSlice(t0)
	s.ld.measuring.Store(true)
	body()
	s.ld.measuring.Store(false)
	end := time.Now()
	res.windowS += end.Sub(t0).Seconds()
	res.cpuS += (cpuTime() - cpu0).Seconds()
	// A trailing stub of a slice is dropped; a wave is always one slice.
	if s.ld.sliceLen == 0 || end.Sub(s.ld.curStart) >= s.ld.sliceLen/2 {
		s.ld.closeSlice(end)
	}
	if s.ld.rec != nil {
		s.ld.rec.on.Store(false)
	}
	res.rounds += int(s.ld.round.Load() - roundsBefore)
	res.d.addWindow(before, s.c.reg.Snapshot())
}

// finish drains the cluster, runs the oracle and — on a traced run — the
// replays, then closes the cluster.
func (s *session) finish(res *result, seed int64, replay bool) error {
	defer s.c.close()
	if err := s.stop(); err != nil {
		return err
	}
	for out, _ := s.ld.outstandingCount(); out > 0; out, _ = s.ld.outstandingCount() {
		s.ld.runRound(nil)
	}
	// Two more rounds let the last sweeps' outref trims and update messages
	// land, so referential integrity is checked at quiescence.
	s.ld.runRound(nil)
	s.ld.runRound(nil)
	rep := checkCluster(auditAll(s.c), s.ld.liveRefs, s.ld.late)
	res.oracle.Count += rep.Count
	res.oracle.Violations = append(res.oracle.Violations, rep.Violations...)
	res.settleFailures += s.c.settleFailures
	res.t.merge(&s.ld.t)
	if replay {
		u := &unitCosts{}
		if err := replayClone(s.ld, seed, u); err != nil {
			return err
		}
		res.units = u
	}
	return nil
}

// runNode measures one node-shape workload: `setups` timed set-ups (the last
// one is kept), one window of the given length, drain, oracle.
func runNode(w *workloadDef, seed int64, window time.Duration, traced bool, setups int) (*result, error) {
	res := &result{w: w, d: newRegDelta()}
	if traced {
		res.rec = newRecorder()
	}
	var s *session
	for i := 0; i < setups; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, err
			}
			s.c.close()
		}
		t0 := time.Now()
		var err error
		if s, err = startSession(w, seed, res.rec); err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
	}
	s.measure(res, func() {
		for start := time.Now(); time.Since(start) < window; {
			s.ld.runRound(nil)
		}
	})
	if err := s.finish(res, seed, traced); err != nil {
		return nil, err
	}
	return res, finishReplays(res)
}

// runStorm measures the stepped workload as a series of identical waves,
// each on a fresh cluster: set up (cluster, live chains, first traces), then
// — measured — plant the hub-and-petals structure and run lockstep rounds
// with the inline mutator until it is swept. Waves repeat until the measured
// time reaches the window (or exactly `waves` times when waves > 0), so for
// one seed every count is an exact multiple of one wave's.
func runStorm(w *workloadDef, seed int64, window time.Duration, traced bool, waves int) (*result, error) {
	res := &result{w: w, d: newRegDelta()}
	if traced {
		res.rec = newRecorder()
	}
	for {
		t0 := time.Now()
		s, err := startSession(w, seed, res.rec)
		if err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		mut := &mutator{ld: s.ld}
		var plantErr error
		s.measure(res, func() {
			if plantErr = s.ld.plant(w.k); plantErr != nil {
				return
			}
			for out, _ := s.ld.outstandingCount(); out > 0; out, _ = s.ld.outstandingCount() {
				s.ld.runRound(mut)
			}
		})
		if plantErr != nil {
			s.c.close()
			return nil, plantErr
		}
		res.waves++
		last := time.Duration(res.windowS*float64(time.Second)) >= window
		if waves > 0 {
			last = res.waves >= waves
		}
		if err := s.finish(res, seed, traced && last); err != nil {
			return nil, err
		}
		if last {
			return res, finishReplays(res)
		}
	}
}

// finishReplays runs the cluster-independent replays of a traced run.
func finishReplays(res *result) error {
	if res.rec == nil {
		return nil
	}
	if err := replayCodec(res.rec.captured, res.units); err != nil {
		return err
	}
	return replayStack(res.rec.captured, res.units)
}

func runWorkload(w *workloadDef, seed int64, window time.Duration, traced bool, setups int) (*result, error) {
	if w.shape == shapeStepped {
		return runStorm(w, seed, window, traced, 0)
	}
	return runNode(w, seed, window, traced, setups)
}
