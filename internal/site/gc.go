package site

import (
	"cmp"
	"slices"
	"sort"
	"time"

	"backtrace/internal/ids"
	"backtrace/internal/metrics"
	"backtrace/internal/msg"
	"backtrace/internal/obs"
	"backtrace/internal/refs"
	"backtrace/internal/tracer"
)

// This file orchestrates the collector phases at one site: the two-phase
// local trace (computation, then commit — the Section 6.2 double buffering
// of back information), the update-message protocol that trims source
// lists and propagates distances (Sections 2–3), and the policy for
// triggering back traces (Section 4.3).

// TraceReport summarizes one committed local trace.
type TraceReport struct {
	// Collected is the number of objects swept.
	Collected int
	// OutrefsTrimmed is the number of outrefs dropped.
	OutrefsTrimmed int
	// UpdatesSent is the number of update messages sent to target sites.
	UpdatesSent int
	// BackTracesStarted is the number of back traces triggered after the
	// commit (only with AutoBackTrace).
	BackTracesStarted int
	// Stats carries the tracer's cost counters.
	Stats tracer.Stats
}

// RunLocalTrace computes and immediately commits a local trace. Most
// callers use this; tests exercising Section 6.2 interleavings call
// BeginLocalTrace and CommitLocalTrace separately.
func (s *Site) RunLocalTrace() TraceReport {
	s.BeginLocalTrace()
	return s.CommitLocalTrace()
}

// BeginLocalTrace computes a local trace — the forward mark, new outref
// distances, and the new copy of the back information — without installing
// any of it. Back traces arriving before the commit keep using the old
// copy; transfer barriers applied before the commit are recorded and
// replayed onto the new copy (Section 6.2).
//
// There is one path. Under a short critical section the site cuts a
// consistent view: a frozen heap view (heap.Snapshot, a copy of the page
// directory and the roots that shares every page; the live heap clones a
// page before its first write to it) and the ioref tables' shadow copy
// patched with their dirty sets. The cut costs O(pages) pointer copies plus
// the changed ioref rows, and localtrace.cut_seconds times it. The
// computation then runs OUTSIDE the site lock on that view, which no writer
// touches (traceMu guarantees the previous trace is done with the table
// shadow). This is exactly what Section 6.2's double buffering buys: the
// live state may keep changing during the computation, because back traces
// still use the old back information, garbage stays garbage (no root or
// message can name an unreachable object), and barriers that fire
// meanwhile are recorded (s.tracing) and replayed at commit.
func (s *Site) BeginLocalTrace() {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	s.localTraceT0 = s.clk.Now()

	s.mu.Lock()
	cut := s.clk.Now()
	h := s.heap.Snapshot()
	tbl := s.table.TraceSnapshot()
	epoch := s.traceEpoch
	// Open the trace window: barriers applied from here to the commit are
	// recorded for replay onto the new back information.
	s.tracing = true
	s.pending = nil
	s.pendingBarrierInrefs = nil
	s.pendingBarrierOutrefs = nil
	s.histTraceCut.ObserveDuration(s.clk.Now().Sub(cut))
	s.mu.Unlock()

	res := s.tracer.Run(h, tbl, s.cfg.SuspicionThreshold, s.cfg.OutsetAlgorithm)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.traceEpoch != epoch || !s.tracing {
		// The state this result was computed from was replaced wholesale
		// while we traced: drop the result rather than install conclusions
		// about a heap that no longer exists. traceMu makes this
		// unreachable for ordinary Begin/Commit interleavings. The table
		// snapshot consumed its dirty sets but the result was dropped, so
		// forget its lineage: the next one is a fresh deep copy.
		s.table.ResetTraceSnapshot()
		return
	}
	s.installPendingLocked(res)
}

// installPendingLocked stages a computed trace result for commit and
// records its cost.
func (s *Site) installPendingLocked(res *tracer.Result) {
	s.pending = res
	s.histMark.ObserveDuration(res.Stats.MarkDuration)
	s.histOutsets.ObserveDuration(res.Stats.OutsetsDuration)
	s.cfg.Counters.Inc(metrics.LocalTraces)
	s.cfg.Counters.Add(metrics.ObjectsTraced, res.Stats.ObjectsTraced)
	s.cfg.Counters.Add(metrics.ObjectsRetraced, res.Stats.OutsetRetraced)
	s.cfg.Counters.Add(metrics.OutsetUnions, res.Stats.Unions)
	s.cfg.Counters.Add(metrics.OutsetUnionsMemoHit, res.Stats.MemoHits)
	// Every trace is a full trace, so every trace counts as a fallback.
	s.cfg.Counters.Inc(metrics.IncrementalFallbacks)
}

// CommitLocalTrace atomically installs the most recent BeginLocalTrace:
// sweeps garbage, trims outrefs, applies new distances, replaces the back
// information, resets expired barrier marks, replays barriers that arrived
// during the trace, sends update messages, and (optionally) triggers back
// traces.
func (s *Site) CommitLocalTrace() TraceReport {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	t0 := s.localTraceT0
	s.localTraceT0 = time.Time{}
	s.mu.Lock()
	res := s.pending
	s.pending = nil
	s.tracing = false
	s.traceEpoch++
	if res == nil {
		s.mu.Unlock()
		return TraceReport{}
	}
	var rep TraceReport
	rep.Stats = res.Stats

	// 1. Sweep objects that were unreachable at computation time. (They
	// cannot have become reachable since: no root or message can name an
	// unreachable object.)
	for _, obj := range res.Dead {
		if s.heap.Contains(obj) {
			s.heap.Delete(obj)
			rep.Collected++
		}
	}
	s.cfg.Counters.Add(metrics.ObjectsCollected, int64(rep.Collected))

	// 2. New outref distances. Transitions to clean fire the clean rule.
	// Sorted iteration keeps the clean-rule notifications (which can send
	// messages) in a deterministic order — a requirement of the replayable
	// simulation harness.
	distTargets := make([]ids.Ref, 0, len(res.OutrefDist))
	for target := range res.OutrefDist {
		distTargets = append(distTargets, target)
	}
	sort.Slice(distTargets, func(i, j int) bool { return distTargets[i].Less(distTargets[j]) })
	for _, target := range distTargets {
		dist := res.OutrefDist[target]
		o, ok := s.table.Outref(target)
		if !ok {
			continue
		}
		wasClean := o.IsClean(s.cfg.SuspicionThreshold)
		o.Distance = dist
		if !wasClean && o.IsClean(s.cfg.SuspicionThreshold) {
			s.engine.NotifyCleanedOutref(target)
		}
	}

	// 3. Trim untraced outrefs — except those retained by the insert
	// barrier (pins), barrier-cleaned by a transfer that happened AFTER
	// this trace was computed (pre-computation barriers are superseded:
	// "outrefs cleaned by the transfer barrier remain clean until the
	// site does the next local trace"), or held in a mutator variable
	// that appeared after the computation.
	postBarrier := make(map[ids.Ref]struct{}, len(s.pendingBarrierOutrefs))
	for _, target := range s.pendingBarrierOutrefs {
		postBarrier[target] = struct{}{}
	}
	removals := make(map[ids.SiteID][]ids.ObjID)
	for _, target := range res.Untraced {
		o, ok := s.table.Outref(target)
		if !ok {
			continue
		}
		if _, barred := postBarrier[target]; barred || o.Pins > 0 || s.heap.HoldsAppRoot(target) {
			continue
		}
		s.table.RemoveOutref(target)
		removals[target.Site] = append(removals[target.Site], target.Obj)
		rep.OutrefsTrimmed++
	}

	// 4. Install the new back information (the Section 6.2 atomic swap),
	// reset the transfer-barrier marks that the new information
	// supersedes, and replay barriers that arrived during the trace on
	// the new copy.
	s.back = res.Back
	s.table.ResetBarriers()
	for _, obj := range s.pendingBarrierInrefs {
		s.rebarrierInrefLocked(obj)
	}
	for _, target := range s.pendingBarrierOutrefs {
		if o, ok := s.table.Outref(target); ok {
			o.Barrier = true
		}
	}
	s.rebarrierTransfersLocked()
	s.pendingBarrierInrefs = nil
	s.pendingBarrierOutrefs = nil

	entries := int64(s.back.Entries())
	s.cfg.Counters.Add(metrics.BackInfoEntries, entries)
	s.cfg.Counters.Max(metrics.BackInfoPeak, entries)

	// 5. Build one update message per target site: source-list removals
	// for trimmed outrefs and distances for the retained ones this trace
	// reached (Sections 2–3). A full update also lists the other retained
	// ones as holds, so it names every held outref once, for idempotent
	// reconciliation; a partial one carries only the distances that differ
	// from the last ones sent (see fullUpdateLocked for which is which).
	// Peers we owe farewell updates to (no outrefs left) get a few empty
	// updates so a lost removal heals.
	updates := make(map[ids.SiteID]*msg.Update)
	held := make(map[ids.SiteID]bool)
	ensure := func(site ids.SiteID) *msg.Update {
		u, ok := updates[site]
		if !ok {
			u = &msg.Update{Partial: !s.fullUpdateLocked(site)}
			updates[site] = u
		}
		return u
	}
	for siteID, objs := range removals {
		sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
		ensure(siteID).Removals = objs
	}
	for _, o := range s.table.Outrefs() {
		u := ensure(o.Target.Site)
		held[o.Target.Site] = true
		if _, traced := res.OutrefDist[o.Target]; !traced {
			o.Sent = 0
			if !u.Partial {
				u.Holds = append(u.Holds, o.Target.Obj)
			}
			continue
		}
		if u.Partial && o.Sent == o.Distance {
			continue
		}
		u.Distances = append(u.Distances, msg.DistanceUpdate{Obj: o.Target.Obj, Distance: o.Distance})
		o.Sent = o.Distance
	}
	for peer := range s.farewell {
		ensure(peer)
	}
	sites := make([]ids.SiteID, 0, len(updates))
	for siteID := range updates {
		sites = append(sites, siteID)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	for _, siteID := range sites {
		if siteID == s.cfg.ID {
			continue
		}
		u := updates[siteID]
		if !held[siteID] {
			// Nothing held at the peer: the full form carries no more
			// than the partial one, and its reconciliation heals a lost
			// removal before the farewells stop.
			u.Partial = false
		}
		s.send(siteID, *u)
		rep.UpdatesSent++
		s.ctrUpdateDists.Add(int64(len(u.Distances)))
		if u.Partial {
			s.sinceFull[siteID]++
		} else {
			s.sinceFull[siteID] = 0
			s.ctrUpdatesFull.Inc()
		}
		switch {
		case held[siteID]:
			s.farewell[siteID] = 3
		default:
			n, owed := s.farewell[siteID]
			switch {
			case owed && n <= 1:
				delete(s.farewell, siteID)
			case owed:
				s.farewell[siteID] = n - 1
			case len(u.Removals) > 0:
				s.farewell[siteID] = 2
			}
		}
	}

	// 5b. Retransmit unacknowledged inserts for outrefs that still exist,
	// in sorted order so retransmission traffic replays deterministically.
	insTargets := make([]ids.Ref, 0, len(s.pendingInserts))
	for target := range s.pendingInserts {
		insTargets = append(insTargets, target)
	}
	sort.Slice(insTargets, func(i, j int) bool { return insTargets[i].Less(insTargets[j]) })
	for _, target := range insTargets {
		if _, ok := s.table.Outref(target); !ok {
			delete(s.pendingInserts, target)
			continue
		}
		s.send(target.Site, s.pendingInserts[target])
	}

	if rep.Collected > 0 {
		s.emit(obs.Event{Kind: obs.ObjectsCollected, N: rep.Collected})
	}
	if rep.OutrefsTrimmed > 0 {
		s.emit(obs.Event{Kind: obs.OutrefsTrimmed, N: rep.OutrefsTrimmed})
	}

	// 6. Trigger back traces from outrefs whose distance has crossed
	// their back threshold (Section 4.3), then admit any parked suspects
	// whose slots freed up during the commit.
	if s.cfg.AutoBackTrace {
		rep.BackTracesStarted = s.triggerBackTracesLocked()
	}
	s.drainAdmissionsLocked()

	// Close the local-trace span (begin through commit).
	if !t0.IsZero() {
		now := s.clk.Now()
		s.histLocalDur.Observe(now.Sub(t0).Seconds())
		s.emitSpan(obs.Span{
			Kind:      obs.SpanLocalTrace,
			Start:     t0,
			End:       now,
			Collected: rep.Collected,
		})
	}
	s.mu.Unlock()
	return rep
}

// fullUpdateEvery is how often an Update to one peer is full: after a full
// one, the next fullUpdateEvery-1 are partial. It bounds how many local
// traces a lost partial update goes unhealed.
const fullUpdateEvery = 8

// fullUpdateLocked reports whether this site's next Update to peer must be
// full: the first since this site or the peer (re)started, and every
// fullUpdateEvery'th after that. The full ones heal what a lost partial
// left out.
func (s *Site) fullUpdateLocked(peer ids.SiteID) bool {
	n, ok := s.sinceFull[peer]
	return !ok || n >= fullUpdateEvery-1
}

// handleUpdate processes a peer's post-trace update message: drop the
// sender from the source lists of removed references, install new
// distances, and, for a full update, reconcile against the sender's hold
// set — the objects of Distances and Holds — (healing any previously lost
// update). Cleanliness transitions fire the clean rule.
//
// An object with an owner-sent transfer to the sender that the sender has
// not yet receipted keeps the sender as a source whatever the update says:
// under R1 the sender built the update before that reference arrived.
// Reconciliation visits only the inrefs that list the sender (the table's
// source index), so an update costs O(holds + removals + inrefs listing
// the sender), not a walk of the whole table.
func (s *Site) handleUpdate(from ids.SiteID, m msg.Update) {
	for _, obj := range m.Removals {
		if !s.transferPendingLocked(from, obj) {
			s.table.RemoveSource(obj, from)
		}
	}
	listed, cleaned := s.table.UpdateSourceDistances(from, len(m.Distances), func(i int) (ids.ObjID, int) {
		return m.Distances[i].Obj, m.Distances[i].Distance
	}, s.cfg.SuspicionThreshold)
	for _, obj := range cleaned {
		s.engine.NotifyCleanedInref(obj)
	}
	if m.Partial {
		// A partial update names only what changed: there is no hold set
		// to reconcile against.
		return
	}
	// Reconciliation: any inref still listing the sender for an object
	// the sender no longer holds an outref to must lose that source. Every
	// object with a distance is held, so when those account for all the
	// inrefs listing the sender — the steady state — nothing is stale.
	// Otherwise both lists, ascending as the sender builds them (its
	// outref table's order), are searched for each inref listing it.
	if listed == s.table.SourceCount(from) {
		return
	}
	dists, holds := m.Distances, m.Holds
	if !slices.IsSortedFunc(dists, cmpDistanceObj) {
		dists = slices.Clone(dists)
		slices.SortFunc(dists, cmpDistanceObj)
	}
	if !slices.IsSorted(holds) {
		holds = slices.Clone(holds)
		slices.Sort(holds)
	}
	var stale []ids.ObjID
	s.table.EachSourceOf(from, func(obj ids.ObjID) {
		if _, held := slices.BinarySearch(holds, obj); held {
			return
		}
		if _, held := slices.BinarySearchFunc(dists, msg.DistanceUpdate{Obj: obj}, cmpDistanceObj); held {
			return
		}
		stale = append(stale, obj)
	})
	stale = slices.DeleteFunc(stale, func(obj ids.ObjID) bool { return s.transferPendingLocked(from, obj) })
	for _, obj := range stale {
		s.table.RemoveSource(obj, from)
	}
}

// cmpDistanceObj orders distance updates by object.
func cmpDistanceObj(a, b msg.DistanceUpdate) int { return cmp.Compare(a.Obj, b.Obj) }

// TriggerBackTraces scans the outref table and starts a back trace from
// every suspected outref whose distance exceeds its back threshold
// (Section 4.3). It returns the number of traces started.
func (s *Site) TriggerBackTraces() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.triggerBackTracesLocked()
}

// triggerBackTracesLocked is the trigger scan, the one path by which back
// traces start automatically: it walks the outref table round-robin from
// where the previous scan stopped, takes the suspects ShouldStart admits
// (eligible, no trace from this engine already active on them) and not
// already parked, groups them into multi-suspect batches by inset overlap,
// and starts batches while the admission cap allows — parking the overflow
// in the distance-priority queue instead of flooding the network.
func (s *Site) triggerBackTracesLocked() int {
	outs := s.table.Outrefs()
	// Resume round-robin: rotate the sorted scan so it starts just after
	// the suspect the previous scan stopped at.
	if s.scanCursorSet && len(outs) > 0 {
		i := sort.Search(len(outs), func(i int) bool { return s.scanCursor.Less(outs[i].Target) })
		rot := make([]*refs.Outref, 0, len(outs))
		rot = append(rot, outs[i:]...)
		rot = append(rot, outs[:i]...)
		outs = rot
	}
	var cands []ids.Ref
	for _, o := range outs {
		if !s.engine.ShouldStart(o.Target) {
			continue
		}
		if _, queued := s.pendingSet[o.Target]; queued {
			continue
		}
		cands = append(cands, o.Target)
	}
	started := 0
	groups := s.groupSuspectsLocked(cands)
	// Largest group first: a multi-suspect batch resolves its whole cone in
	// one trace, so under a tight admission cap it buys the most coverage
	// per slot. SliceStable keeps the round-robin order within a size class.
	sort.SliceStable(groups, func(i, j int) bool { return len(groups[i]) > len(groups[j]) })
	for _, group := range groups {
		if s.inflight >= s.cfg.MaxInflightTraces {
			for _, target := range group {
				s.enqueuePendingLocked(target)
			}
			continue
		}
		if _, ok := s.startAdmittedLocked(group); ok {
			s.scanCursor = group[len(group)-1]
			s.scanCursorSet = true
			started++
		}
	}
	return started
}

// groupSuspectsLocked groups candidate suspects whose insets overlap (per
// the installed back information) into batches of at most Config.TraceBatch
// (single suspects when it is one).
// Two suspects land in one group when they share an inref in their insets —
// their back-trace cones meet at that inref, so one trace's visit marks
// cover both (Section 4.5).
func (s *Site) groupSuspectsLocked(cands []ids.Ref) [][]ids.Ref {
	max := s.cfg.TraceBatch
	var groups [][]ids.Ref
	owner := make(map[ids.ObjID]int) // inset inref → group index
	for _, c := range cands {
		inset := s.back.Inset(c)
		g := -1
		for _, obj := range inset {
			if gi, ok := owner[obj]; ok && len(groups[gi]) < max {
				g = gi
				break
			}
		}
		if g < 0 {
			groups = append(groups, nil)
			g = len(groups) - 1
		}
		groups[g] = append(groups[g], c)
		for _, obj := range inset {
			if _, ok := owner[obj]; !ok {
				owner[obj] = g
			}
		}
	}
	return groups
}

// enqueuePendingLocked parks one suspect in the admission queue.
func (s *Site) enqueuePendingLocked(target ids.Ref) {
	if _, ok := s.pendingSet[target]; ok {
		return
	}
	dist := 0
	if o, ok := s.table.Outref(target); ok {
		dist = o.Distance
	}
	s.pendingSeq++
	s.pendingSet[target] = struct{}{}
	s.pendingTraces = append(s.pendingTraces, pendingTrace{target: target, dist: dist, seq: s.pendingSeq})
	s.cfg.Counters.Inc(metrics.BackTraceDeferred)
}

// drainAdmissionsLocked starts parked suspects while admission slots are
// free. It runs at the safe points of every entry path that can complete a
// trace (message delivery, commit, timeout scan) — never inside an engine
// callback.
func (s *Site) drainAdmissionsLocked() {
	if !s.admitPending {
		return
	}
	s.admitPending = false
	if len(s.pendingTraces) == 0 {
		return
	}
	// Farthest distance first (the strongest suspects, Section 3), oldest
	// first on ties.
	sort.Slice(s.pendingTraces, func(i, j int) bool {
		if s.pendingTraces[i].dist != s.pendingTraces[j].dist {
			return s.pendingTraces[i].dist > s.pendingTraces[j].dist
		}
		return s.pendingTraces[i].seq < s.pendingTraces[j].seq
	})
	for len(s.pendingTraces) > 0 {
		if s.inflight >= s.cfg.MaxInflightTraces {
			return
		}
		p := s.pendingTraces[0]
		s.pendingTraces = s.pendingTraces[1:]
		delete(s.pendingSet, p.target)
		// Revalidate: the suspect may have been cleaned, trimmed, proven
		// Live, or covered by another trace while parked.
		if !s.engine.ShouldStart(p.target) {
			continue
		}
		s.startAdmittedLocked([]ids.Ref{p.target})
	}
}

// startAdmittedLocked starts one back trace from a group of suspects
// through the admission accounting: the whole group occupies one slot (it
// is one trace). The in-flight count rises before the engine runs (the
// trace may complete synchronously, decrementing it again via the
// completion callback) and reverts if no trace started.
func (s *Site) startAdmittedLocked(targets []ids.Ref) (ids.TraceID, bool) {
	s.inflight++
	s.cfg.Counters.Max(metrics.BackTraceInflight, int64(s.inflight))
	t, ok := s.engine.StartTrace(targets...)
	if !ok {
		s.inflight--
		return t, false
	}
	s.emit(obs.Event{Kind: obs.TraceStarted, Trace: t, Ref: targets[0]})
	return t, true
}

// StartBackTrace starts a back trace from a specific outref, bypassing the
// back-threshold policy (used by tests and experiments). It reports
// whether a trace started.
func (s *Site) StartBackTrace(target ids.Ref) (ids.TraceID, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.startAdmittedLocked([]ids.Ref{target})
}

// GarbageFlaggedInrefs returns the local objects whose inrefs a completed
// back trace has flagged as garbage. Like Inrefs it takes the write lock.
func (s *Site) GarbageFlaggedInrefs() []ids.ObjID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.assertNoStrandedHold()
	var out []ids.ObjID
	for _, in := range s.table.Inrefs() {
		if in.Garbage {
			out = append(out, in.Obj)
		}
	}
	return out
}

// InrefDistance returns the current distance of the inref for obj, or
// refs.DistInfinity if there is none.
func (s *Site) InrefDistance(obj ids.ObjID) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.assertNoStrandedHold()
	if in, ok := s.table.Inref(obj); ok {
		return in.Distance()
	}
	return refs.DistInfinity
}

// OutrefDistance returns the current distance of the outref for target, or
// refs.DistInfinity if there is none.
func (s *Site) OutrefDistance(target ids.Ref) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.assertNoStrandedHold()
	if o, ok := s.table.Outref(target); ok {
		return o.Distance
	}
	return refs.DistInfinity
}
