// Package refs implements a site's tables of inter-site references: the
// inref table (incoming references with their source lists and per-source
// distance estimates) and the outref table (outgoing references with their
// distance estimates and insert-barrier pins), as described in Sections 2,
// 3, and 6 of the paper.
//
// Terminology follows the paper: an *inref* records that remote sites hold
// references to a local object; an *outref* records that this site holds a
// reference to a remote object; *iorefs* are both collectively. An ioref is
// *clean* if it is presumed reachable from a persistent root — because its
// estimated distance is at or below the suspicion threshold, because the
// transfer barrier cleaned it (Section 6.1.1), or, for outrefs, because it
// is pinned by the insert barrier (Section 6.1.2) or held by a mutator
// variable. Otherwise it is *suspected*.
//
// Like package heap, the tables are hash-sharded by object identifier: each
// shard owns its own lock, its own sorted-order cache, its own dirty set,
// and its own slice of the copy-on-write trace snapshot. Protocol-level
// mutation still runs under the owning Site's write lock; the shard locks
// make single-entry reads safe against the concurrent snapshot patching
// and introspection the sharded site allows.
package refs

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"backtrace/internal/ids"
)

// DistInfinity is the distance of garbage: no path from any persistent
// root. Arithmetic never overflows because propagation adds at most one per
// step and saturates.
const DistInfinity = math.MaxInt32

// AddDist adds a hop count to a distance, saturating at DistInfinity.
func AddDist(d, hops int) int {
	if d >= DistInfinity-hops {
		return DistInfinity
	}
	return d + hops
}

// Inref is one entry in the inref table: a local object that remote sites
// hold references to (Section 2, Figure 1).
type Inref struct {
	// Obj is the local object the incoming references point to.
	Obj ids.ObjID
	// Sources maps each source site known to hold the reference to the
	// estimated distance via that source (Section 3: "A distance field is
	// associated with each source site in an inref").
	Sources map[ids.SiteID]int
	// Barrier is true while the transfer barrier holds this inref clean;
	// the next local trace resets it (Section 6.1.1).
	Barrier bool
	// Garbage is set when a back trace confirmed this inref garbage in
	// its report phase; the local trace then stops using it as a root
	// (Section 4.5).
	Garbage bool
	// BackThreshold is this ioref's personal back-trace trigger. It
	// starts at the configured T2 and is raised each time a back trace
	// visits the ioref, so live suspects stop generating traces
	// (Section 4.3).
	BackThreshold int
	// Visited holds the back traces that have visited this inref and not
	// yet completed (Section 4.4, Section 4.7), each with the batch suspect
	// index on whose behalf the visit happened (always 0 for single-suspect
	// traces). An ioref is rarely in more than two live traces at once.
	Visited []Visit
}

// Visit is one back trace's visit mark on an ioref.
type Visit struct {
	Trace   ids.TraceID
	Suspect uint32
}

// markVisited records a visit in vs unless the trace already has one; it
// returns the suspect owning the trace's mark and whether it existed.
func markVisited(vs *[]Visit, t ids.TraceID, suspect uint32) (owner uint32, already bool) {
	for _, v := range *vs {
		if v.Trace == t {
			return v.Suspect, true
		}
	}
	*vs = append(*vs, Visit{Trace: t, Suspect: suspect})
	return suspect, false
}

// clearVisited removes the trace's visit from vs, keeping the order of the
// rest and the slice's storage.
func clearVisited(vs *[]Visit, t ids.TraceID) {
	*vs = slices.DeleteFunc(*vs, func(v Visit) bool { return v.Trace == t })
}

// Distance returns the inref's distance: the smallest distance over its
// sources, or DistInfinity if the source list is empty.
func (in *Inref) Distance() int {
	d := DistInfinity
	for _, sd := range in.Sources {
		if sd < d {
			d = sd
		}
	}
	return d
}

// IsClean reports whether the inref is clean at the given suspicion
// threshold. A garbage-flagged inref is never clean.
func (in *Inref) IsClean(threshold int) bool {
	if in.Garbage {
		return false
	}
	return in.Barrier || in.Distance() <= threshold
}

// SourceSites returns the source sites in ascending order.
func (in *Inref) SourceSites() []ids.SiteID {
	return in.AppendSourceSites(make([]ids.SiteID, 0, len(in.Sources)))
}

// AppendSourceSites appends the source sites in ascending order to dst and
// returns the extended slice — SourceSites without the allocation, for
// callers that keep a scratch buffer.
func (in *Inref) AppendSourceSites(dst []ids.SiteID) []ids.SiteID {
	n := len(dst)
	for s := range in.Sources {
		dst = append(dst, s)
	}
	slices.Sort(dst[n:])
	return dst
}

// MarkVisited records a back trace's visit on behalf of a batch suspect;
// it reports whether the trace had already visited (in which case the
// caller returns Garbage immediately, Section 4.4) along with the suspect
// that owns the existing mark.
func (in *Inref) MarkVisited(t ids.TraceID, suspect uint32) (owner uint32, already bool) {
	return markVisited(&in.Visited, t, suspect)
}

// ClearVisited removes a completed trace's visit mark.
func (in *Inref) ClearVisited(t ids.TraceID) { clearVisited(&in.Visited, t) }

// Outref is one entry in the outref table: a remote object this site holds
// a reference to (Section 2, Figure 1).
type Outref struct {
	// Target is the remote object referenced.
	Target ids.Ref
	// Distance is the estimated distance propagated by local traces
	// (Section 3).
	Distance int
	// Pins counts insert-barrier holds: while positive, the outref is
	// retained and clean regardless of distance (Section 6.1.2).
	Pins int
	// Barrier is true while the transfer barrier holds this outref clean;
	// the next local trace resets it (Section 6.1.1).
	Barrier bool
	// BackThreshold is this ioref's personal back-trace trigger
	// (Section 4.3); see Inref.BackThreshold.
	BackThreshold int
	// Visited holds the back traces currently marking this outref
	// (Section 4.4), each with its owning batch suspect index; see
	// Inref.Visited.
	Visited []Visit
}

// IsClean reports whether the outref is clean at the given suspicion
// threshold. Cleanliness follows the paper's trace-based definition:
// "inrefs with distances ≤ the threshold — and objects and outrefs traced
// from them — are said to be clean" (Section 3). An outref's distance is
// one plus the distance of the inref (or root) it was traced from, so an
// outref is clean iff its distance is at most threshold+1. (Comparing
// against the bare threshold would wrongly suspect a live outref traced
// from a clean inref sitting exactly at the threshold; its inset contains
// no suspected inrefs, so a back trace would confirm live objects garbage.)
func (o *Outref) IsClean(threshold int) bool {
	return o.Barrier || o.Pins > 0 || o.Distance <= threshold+1
}

// MarkVisited records a back trace's visit on behalf of a batch suspect;
// see Inref.MarkVisited.
func (o *Outref) MarkVisited(t ids.TraceID, suspect uint32) (owner uint32, already bool) {
	return markVisited(&o.Visited, t, suspect)
}

// ClearVisited removes a completed trace's visit mark.
func (o *Outref) ClearVisited(t ids.TraceID) { clearVisited(&o.Visited, t) }

// inShard is one hash partition of the inref table. Each shard caches its
// own sorted order: a membership change invalidates only that shard's
// cache, so the per-trace sorted scan rebuilds O(changed shards), not the
// whole table.
type inShard struct {
	mu     sync.RWMutex
	inrefs map[ids.ObjID]*Inref

	// sorted caches this shard's inrefs ordered by object identifier; it
	// is invalidated only when shard membership changes (insert or
	// remove), not on distance or flag updates. rebuilds counts cache
	// rebuilds, as instrumentation for the per-shard invalidation
	// regression test.
	sorted      []*Inref
	sortedValid bool
	rebuilds    int

	dirtyIn map[ids.ObjID]struct{}

	// bySource indexes the shard's inrefs by source site: bySource[q]
	// holds every object whose source list names q. AddSource,
	// RemoveSource, RemoveInref and SetSource maintain it, so an update
	// from q reconciles only the inrefs that list q (EachSourceOf) instead
	// of scanning the table. Trace snapshots leave it empty: the tracer
	// never reads it.
	bySource map[ids.SiteID]map[ids.ObjID]struct{}
}

// indexSource records that obj's source list names src. Caller holds sh.mu.
func (sh *inShard) indexSource(src ids.SiteID, obj ids.ObjID) {
	objs := sh.bySource[src]
	if objs == nil {
		if sh.bySource == nil {
			sh.bySource = make(map[ids.SiteID]map[ids.ObjID]struct{})
		}
		objs = make(map[ids.ObjID]struct{})
		sh.bySource[src] = objs
	}
	objs[obj] = struct{}{}
}

// unindexSource forgets that obj's source list names src. Caller holds
// sh.mu.
func (sh *inShard) unindexSource(src ids.SiteID, obj ids.ObjID) {
	objs := sh.bySource[src]
	delete(objs, obj)
	if len(objs) == 0 {
		delete(sh.bySource, src)
	}
}

// outShard is one hash partition of the outref table. Like inShard it
// caches its sorted order until its membership changes.
type outShard struct {
	mu          sync.RWMutex
	outrefs     map[ids.Ref]*Outref
	sorted      []*Outref
	sortedValid bool
	dirtyOut    map[ids.Ref]struct{}
}

// Table holds one site's inref and outref tables.
type Table struct {
	site ids.SiteID
	ins  []*inShard
	outs []*outShard

	// defaultBackThreshold initializes the BackThreshold of new iorefs
	// (the paper's T2, Section 4.3).
	defaultBackThreshold int

	// merged caches the table-wide Inrefs() ordering, built by merging
	// the per-shard sorted caches. mergedValid is atomic because
	// different-shard membership changes may invalidate it concurrently;
	// mergedMu serializes the rebuild against concurrent readers.
	mergedMu    sync.Mutex
	merged      []*Inref
	mergedValid atomic.Bool
	// outMerged is the same cache for Outrefs().
	outMergedMu    sync.Mutex
	outMerged      []*Outref
	outMergedValid atomic.Bool

	// --- trace-snapshot write barrier (see TraceSnapshot) ---

	// tracking is written only while whole-table exclusion holds
	// (construction or the site write lock). dirtyIn/dirtyOut live on the
	// shards: obj/ref entries whose tracer-visible state may differ from
	// snap. Tracer-invisible fields (Barrier, Pins, outref Distance,
	// BackThreshold, Visited) are not tracked.
	tracking bool
	snap     *Table
}

// NewTable creates empty single-shard tables for a site. backThreshold is
// the initial per-ioref back threshold T2.
func NewTable(site ids.SiteID, backThreshold int) *Table {
	return NewTableSharded(site, backThreshold, 1)
}

// NewTableSharded creates empty tables with the given shard count (clamped
// to at least 1). Sites pass the same count as their heap so inrefs and
// marks partition identically.
func NewTableSharded(site ids.SiteID, backThreshold int, shards int) *Table {
	if shards < 1 {
		shards = 1
	}
	t := &Table{
		site:                 site,
		ins:                  make([]*inShard, shards),
		outs:                 make([]*outShard, shards),
		defaultBackThreshold: backThreshold,
	}
	for i := range t.ins {
		t.ins[i] = &inShard{inrefs: make(map[ids.ObjID]*Inref)}
		t.outs[i] = &outShard{outrefs: make(map[ids.Ref]*Outref)}
	}
	return t
}

// Site returns the owning site.
func (t *Table) Site() ids.SiteID { return t.site }

// NumShards returns the table's shard count.
func (t *Table) NumShards() int { return len(t.ins) }

// ShardOf returns the shard index owning an object identifier; it matches
// heap.ShardOf for a heap of the same shard count.
func (t *Table) ShardOf(obj ids.ObjID) int {
	return int(uint64(obj) % uint64(len(t.ins)))
}

func (t *Table) inShardFor(obj ids.ObjID) *inShard { return t.ins[t.ShardOf(obj)] }

func (t *Table) outShardFor(r ids.Ref) *outShard { return t.outs[t.ShardOf(r.Obj)] }

// InrefShardRebuilds returns how many times shard i's sorted cache has been
// rebuilt (test instrumentation for per-shard cache invalidation).
func (t *Table) InrefShardRebuilds(i int) int {
	sh := t.ins[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.rebuilds
}

// EnableDeltaTracking turns on the write barrier that records dirty
// entries for TraceSnapshot. Sites call this once at construction; it
// requires whole-table exclusion.
func (t *Table) EnableDeltaTracking() {
	if t.tracking {
		return
	}
	t.tracking = true
	for i := range t.ins {
		t.ins[i].dirtyIn = make(map[ids.ObjID]struct{})
		t.outs[i].dirtyOut = make(map[ids.Ref]struct{})
	}
}

// The touch helpers run with the shard lock held.

func (t *Table) touchIn(sh *inShard, obj ids.ObjID) {
	if t.tracking {
		sh.dirtyIn[obj] = struct{}{}
	}
}

func (t *Table) touchOut(sh *outShard, target ids.Ref) {
	if t.tracking {
		sh.dirtyOut[target] = struct{}{}
	}
}

// --- inrefs --------------------------------------------------------------

// Inref returns the inref for a local object, if present.
func (t *Table) Inref(obj ids.ObjID) (*Inref, bool) {
	sh := t.inShardFor(obj)
	sh.mu.RLock()
	in, ok := sh.inrefs[obj]
	sh.mu.RUnlock()
	return in, ok
}

// EnsureInref returns the inref for obj, creating an empty one if absent.
func (t *Table) EnsureInref(obj ids.ObjID) *Inref {
	sh := t.inShardFor(obj)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	in, ok := sh.inrefs[obj]
	if !ok {
		in = &Inref{
			Obj:           obj,
			Sources:       make(map[ids.SiteID]int),
			BackThreshold: t.defaultBackThreshold,
		}
		sh.inrefs[obj] = in
		sh.sortedValid = false
		t.mergedValid.Store(false)
		t.touchIn(sh, obj)
	}
	return in
}

// AddSource records that a source site holds a reference to obj. If the
// source is new its distance is conservatively set to 1 (Section 3); an
// existing source's distance is left unchanged.
func (t *Table) AddSource(obj ids.ObjID, src ids.SiteID) *Inref {
	sh := t.inShardFor(obj)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	in, ok := sh.inrefs[obj]
	if !ok {
		in = &Inref{
			Obj:           obj,
			Sources:       make(map[ids.SiteID]int),
			BackThreshold: t.defaultBackThreshold,
		}
		sh.inrefs[obj] = in
		sh.sortedValid = false
		t.mergedValid.Store(false)
		t.touchIn(sh, obj)
	}
	if _, ok := in.Sources[src]; !ok {
		in.Sources[src] = 1
		sh.indexSource(src, obj)
		t.touchIn(sh, obj)
	}
	return in
}

// SetSource records src as a source of obj's inref at distance dist,
// creating the inref if needed (checkpoint recovery).
func (t *Table) SetSource(obj ids.ObjID, src ids.SiteID, dist int) {
	t.AddSource(obj, src)
	t.SetSourceDistance(obj, src, dist)
}

// SetSourceDistance updates the distance for one source of obj's inref, if
// both exist (distance changes arrive in update messages, Section 3).
func (t *Table) SetSourceDistance(obj ids.ObjID, src ids.SiteID, dist int) {
	sh := t.inShardFor(obj)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	in, ok := sh.inrefs[obj]
	if !ok {
		return
	}
	if old, ok := in.Sources[src]; !ok || old == dist {
		return
	}
	in.Sources[src] = dist
	t.touchIn(sh, obj)
}

// UpdateSourceDistances applies n distance changes reported by src — the
// i'th sets obj's distance to dist, where obj, dist = at(i) — like
// SetSourceDistance, taking each shard's lock once for the whole batch. It
// returns how many of the objects' inrefs list src, and the inrefs a change
// turned from suspected to clean at threshold, which fire the clean rule
// (Section 6.4).
func (t *Table) UpdateSourceDistances(src ids.SiteID, n int, at func(i int) (ids.ObjID, int), threshold int) (listed int, cleaned []ids.ObjID) {
	for _, sh := range t.ins {
		sh.mu.Lock()
	}
	for i := 0; i < n; i++ {
		obj, dist := at(i)
		sh := t.inShardFor(obj)
		in, ok := sh.inrefs[obj]
		if !ok {
			continue
		}
		old, ok := in.Sources[src]
		if !ok {
			continue
		}
		listed++
		if old == dist {
			continue
		}
		in.Sources[src] = dist
		t.touchIn(sh, obj)
		if turnedClean(in, src, old, dist, threshold) {
			cleaned = append(cleaned, obj)
		}
	}
	for _, sh := range t.ins {
		sh.mu.Unlock()
	}
	return listed, cleaned
}

// turnedClean reports whether moving src's distance from old to dist made
// a suspected inref clean. Only that source moved, so it did exactly when
// the source came within the threshold while it and every other source were
// beyond it, and no barrier or garbage flag decided the question.
func turnedClean(in *Inref, src ids.SiteID, old, dist, threshold int) bool {
	if in.Barrier || in.Garbage || dist > threshold || old <= threshold {
		return false
	}
	for s, d := range in.Sources {
		if s != src && d <= threshold {
			return false
		}
	}
	return true
}

// RemoveSource removes src from obj's source list (the sender trimmed its
// outref); an inref whose source list empties is removed entirely and the
// removal is reported (Section 2: "An inref with an empty source list is
// removed").
func (t *Table) RemoveSource(obj ids.ObjID, src ids.SiteID) (removedInref bool) {
	sh := t.inShardFor(obj)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	in, ok := sh.inrefs[obj]
	if !ok {
		return false
	}
	if _, had := in.Sources[src]; had {
		delete(in.Sources, src)
		sh.unindexSource(src, obj)
		t.touchIn(sh, obj)
	}
	if len(in.Sources) == 0 {
		delete(sh.inrefs, obj)
		sh.sortedValid = false
		t.mergedValid.Store(false)
		t.touchIn(sh, obj)
		return true
	}
	return false
}

// RemoveInref deletes an inref outright (collector cleanup).
func (t *Table) RemoveInref(obj ids.ObjID) {
	sh := t.inShardFor(obj)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	in, ok := sh.inrefs[obj]
	if !ok {
		return
	}
	for src := range in.Sources {
		sh.unindexSource(src, obj)
	}
	delete(sh.inrefs, obj)
	sh.sortedValid = false
	t.mergedValid.Store(false)
	t.touchIn(sh, obj)
}

// FlagGarbage sets the inref's garbage flag (a back trace confirmed it
// garbage in its report phase, Section 4.5). Routed through the table so
// the trace snapshot sees the root disappear.
func (t *Table) FlagGarbage(obj ids.ObjID) {
	sh := t.inShardFor(obj)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	in, ok := sh.inrefs[obj]
	if !ok || in.Garbage {
		return
	}
	in.Garbage = true
	t.touchIn(sh, obj)
}

// sortedLocked returns the shard's sorted cache, rebuilding it if
// membership changed since the last call. Caller holds sh.mu.
func (sh *inShard) sortedLocked() []*Inref {
	if !sh.sortedValid {
		sh.sorted = sh.sorted[:0]
		for _, in := range sh.inrefs {
			sh.sorted = append(sh.sorted, in)
		}
		sort.Slice(sh.sorted, func(i, j int) bool { return sh.sorted[i].Obj < sh.sorted[j].Obj })
		sh.sortedValid = true
		sh.rebuilds++
	}
	return sh.sorted
}

// Inrefs returns all inrefs ordered by object identifier. The slice is a
// cache owned by the table: callers must not modify it, and it is valid
// until the next insert or remove. A membership change rebuilds only the
// sorted order of the shard it happened in; unchanged shards contribute
// their cached order to the merge.
func (t *Table) Inrefs() []*Inref {
	t.mergedMu.Lock()
	defer t.mergedMu.Unlock()
	if t.mergedValid.Load() {
		return t.merged
	}
	if len(t.ins) == 1 {
		sh := t.ins[0]
		sh.mu.Lock()
		t.merged = sh.sortedLocked()
		sh.mu.Unlock()
		t.mergedValid.Store(true)
		return t.merged
	}
	parts := make([][]*Inref, len(t.ins))
	total := 0
	for i, sh := range t.ins {
		sh.mu.Lock()
		parts[i] = sh.sortedLocked()
		sh.mu.Unlock()
		total += len(parts[i])
	}
	t.merged = mergeSorted(parts, t.merged[:0], total, func(a, b *Inref) bool { return a.Obj < b.Obj })
	t.mergedValid.Store(true)
	return t.merged
}

// mergeSorted k-way merges per-shard sorted slices into dst. Hash
// sharding interleaves identifiers across shards, so concatenation is not
// sorted; the merge repeatedly takes the smallest head.
func mergeSorted[T any](parts [][]T, dst []T, total int, less func(a, b T) bool) []T {
	if cap(dst) < total {
		dst = make([]T, 0, total)
	}
	heads := make([]int, len(parts))
	for len(dst) < total {
		best := -1
		for i, p := range parts {
			if heads[i] >= len(p) {
				continue
			}
			if best < 0 || less(p[heads[i]], parts[best][heads[best]]) {
				best = i
			}
		}
		dst = append(dst, parts[best][heads[best]])
		heads[best]++
	}
	return dst
}

// NumInrefs returns the number of inrefs.
func (t *Table) NumInrefs() int {
	n := 0
	for _, sh := range t.ins {
		sh.mu.RLock()
		n += len(sh.inrefs)
		sh.mu.RUnlock()
	}
	return n
}

// SourceCount returns the number of inrefs whose source lists name src.
func (t *Table) SourceCount(src ids.SiteID) int {
	n := 0
	for _, sh := range t.ins {
		sh.mu.RLock()
		n += len(sh.bySource[src])
		sh.mu.RUnlock()
	}
	return n
}

// EachSourceOf invokes fn for every object whose inref lists src as a
// source, in unspecified order, visiting only those inrefs (the per-shard
// source index). fn must not add or remove sources or inrefs.
func (t *Table) EachSourceOf(src ids.SiteID, fn func(obj ids.ObjID)) {
	for _, sh := range t.ins {
		sh.mu.RLock()
		for obj := range sh.bySource[src] {
			fn(obj)
		}
		sh.mu.RUnlock()
	}
}

// --- outrefs -------------------------------------------------------------

// Outref returns the outref for a remote target, if present.
func (t *Table) Outref(target ids.Ref) (*Outref, bool) {
	sh := t.outShardFor(target)
	sh.mu.RLock()
	o, ok := sh.outrefs[target]
	sh.mu.RUnlock()
	return o, ok
}

// EnsureOutref returns the outref for target, creating one if absent. A
// freshly created outref starts with distance 1 (the most optimistic
// estimate for a reference that just arrived; the next local trace and
// update messages will correct it) and with the transfer-barrier clean mark
// set, since a new outref is only created when a mutator is actively
// passing the reference (Section 6.1.2, case 4: "Y creates a clean outref
// for z").
func (t *Table) EnsureOutref(target ids.Ref) (o *Outref, created bool) {
	sh := t.outShardFor(target)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	o, ok := sh.outrefs[target]
	if !ok {
		o = &Outref{
			Target:        target,
			Distance:      1,
			Barrier:       true,
			BackThreshold: t.defaultBackThreshold,
		}
		sh.outrefs[target] = o
		created = true
		t.outMembershipChanged(sh)
		t.touchOut(sh, target)
	}
	return o, created
}

// RemoveOutref deletes an outref (trimmed after a local trace).
func (t *Table) RemoveOutref(target ids.Ref) {
	sh := t.outShardFor(target)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.outrefs[target]; !ok {
		return
	}
	delete(sh.outrefs, target)
	t.outMembershipChanged(sh)
	t.touchOut(sh, target)
}

// outMembershipChanged invalidates the sorted-order caches after an outref
// was added to or removed from sh. Caller holds sh.mu.
func (t *Table) outMembershipChanged(sh *outShard) {
	sh.sortedValid = false
	t.outMergedValid.Store(false)
}

// sortedLocked returns the shard's sorted cache, rebuilding it if
// membership changed since the last call. A rebuild makes a new slice, so
// slices handed out earlier never change. Caller holds sh.mu.
func (sh *outShard) sortedLocked() []*Outref {
	if !sh.sortedValid {
		sorted := make([]*Outref, 0, len(sh.outrefs))
		for _, o := range sh.outrefs {
			sorted = append(sorted, o)
		}
		slices.SortFunc(sorted, func(a, b *Outref) int { return a.Target.Compare(b.Target) })
		sh.sorted, sh.sortedValid = sorted, true
	}
	return sh.sorted
}

// Outrefs returns all outrefs ordered by target reference. The slice is a
// cache owned by the table: callers must not modify it. It is rebuilt only
// after a membership change, into a new slice, so a slice already returned
// keeps listing the outrefs present when it was built.
func (t *Table) Outrefs() []*Outref {
	t.outMergedMu.Lock()
	defer t.outMergedMu.Unlock()
	if t.outMergedValid.Load() {
		return t.outMerged
	}
	if len(t.outs) == 1 {
		sh := t.outs[0]
		sh.mu.Lock()
		t.outMerged = sh.sortedLocked()
		sh.mu.Unlock()
	} else {
		parts := make([][]*Outref, len(t.outs))
		total := 0
		for i, sh := range t.outs {
			sh.mu.Lock()
			parts[i] = sh.sortedLocked()
			sh.mu.Unlock()
			total += len(parts[i])
		}
		t.outMerged = mergeSorted(parts, nil, total, func(a, b *Outref) bool { return a.Target.Less(b.Target) })
	}
	t.outMergedValid.Store(true)
	return t.outMerged
}

// NumOutrefs returns the number of outrefs.
func (t *Table) NumOutrefs() int {
	n := 0
	for _, sh := range t.outs {
		sh.mu.RLock()
		n += len(sh.outrefs)
		sh.mu.RUnlock()
	}
	return n
}

// Pin increments the insert-barrier pin count of the outref for target,
// creating the outref if needed (the sender must retain it).
func (t *Table) Pin(target ids.Ref) *Outref {
	o, _ := t.EnsureOutref(target)
	o.Pins++
	return o
}

// Unpin decrements the pin count; it is a no-op if the outref is missing or
// unpinned (a duplicate ReleasePin after message retry is harmless).
func (t *Table) Unpin(target ids.Ref) {
	o, ok := t.Outref(target)
	if !ok {
		return
	}
	if o.Pins > 0 {
		o.Pins--
	}
}

// eachShardConcurrent runs fn(i) for every shard index, on one goroutine
// per shard when the table has more than one.
func (t *Table) eachShardConcurrent(fn func(i int)) {
	if len(t.ins) == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for i := range t.ins {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// Snapshot returns a deep copy of both tables — TraceSnapshot's first cut,
// and the tests' independent reference; shards are copied concurrently.
// Everything the tracer reads is copied — source lists with distances,
// barrier and garbage flags, pins, distances, back thresholds. The per-trace Visited marks are deliberately
// NOT carried over: they belong to the live table (the back-tracing engine
// mutates them under the site lock) and the tracer never reads them.
func (t *Table) Snapshot() *Table {
	cp := NewTableSharded(t.site, t.defaultBackThreshold, len(t.ins))
	t.eachShardConcurrent(func(i int) {
		src, dst := t.ins[i], cp.ins[i]
		src.mu.RLock()
		dst.inrefs = make(map[ids.ObjID]*Inref, len(src.inrefs))
		for obj, in := range src.inrefs {
			srcs := make(map[ids.SiteID]int, len(in.Sources))
			for s, d := range in.Sources {
				srcs[s] = d
			}
			dst.inrefs[obj] = &Inref{
				Obj:           in.Obj,
				Sources:       srcs,
				Barrier:       in.Barrier,
				Garbage:       in.Garbage,
				BackThreshold: in.BackThreshold,
			}
		}
		src.mu.RUnlock()

		osrc, odst := t.outs[i], cp.outs[i]
		osrc.mu.RLock()
		odst.outrefs = make(map[ids.Ref]*Outref, len(osrc.outrefs))
		for target, o := range osrc.outrefs {
			odst.outrefs[target] = &Outref{
				Target:        o.Target,
				Distance:      o.Distance,
				Pins:          o.Pins,
				Barrier:       o.Barrier,
				BackThreshold: o.BackThreshold,
			}
		}
		osrc.mu.RUnlock()
	})
	return cp
}

// TraceSnapshot returns a read-only snapshot of the tables, mirroring
// heap.TraceSnapshot: the first call deep-copies, later calls patch each
// shard of the retained shadow copy concurrently, in O(dirty) total. The
// snapshot is faithful only for what the tracer reads — inref existence,
// source distances, garbage flags, and outref existence; tracer-invisible
// fields (Barrier, Pins, outref Distance) may be stale in patched entries.
// The returned table is patched in place by the next call; the site's
// trace mutex serializes.
func (t *Table) TraceSnapshot() *Table {
	if !t.tracking {
		t.EnableDeltaTracking()
	}
	if t.snap == nil {
		t.snap = t.Snapshot()
		for i := range t.ins {
			t.ins[i].mu.Lock()
			clear(t.ins[i].dirtyIn)
			t.ins[i].mu.Unlock()
			t.outs[i].mu.Lock()
			clear(t.outs[i].dirtyOut)
			t.outs[i].mu.Unlock()
		}
		return t.snap
	}
	t.eachShardConcurrent(t.patchShard)
	return t.snap
}

// patchShard brings shard i of the shadow tables up to date from the live
// shard's dirty sets. It locks the live shard; the shadow is owned by the
// snapshot lineage.
func (t *Table) patchShard(i int) {
	sh, snapSh := t.ins[i], t.snap.ins[i]
	sh.mu.Lock()
	for obj := range sh.dirtyIn {
		liveIn, liveOK := sh.inrefs[obj]
		snapIn, snapOK := snapSh.inrefs[obj]
		if liveOK {
			srcs := make(map[ids.SiteID]int, len(liveIn.Sources))
			for s, sd := range liveIn.Sources {
				srcs[s] = sd
			}
			if snapOK {
				// Patch the existing struct in place: the snapshot's sorted
				// caches hold pointers, so replacing the struct would leave
				// a stale entry behind without invalidating the cache.
				snapIn.Sources = srcs
				snapIn.Barrier = liveIn.Barrier
				snapIn.Garbage = liveIn.Garbage
				snapIn.BackThreshold = liveIn.BackThreshold
			} else {
				snapSh.inrefs[obj] = &Inref{
					Obj:           liveIn.Obj,
					Sources:       srcs,
					Barrier:       liveIn.Barrier,
					Garbage:       liveIn.Garbage,
					BackThreshold: liveIn.BackThreshold,
				}
				snapSh.sortedValid = false
				t.snap.mergedValid.Store(false)
			}
		} else if snapOK {
			delete(snapSh.inrefs, obj)
			snapSh.sortedValid = false
			t.snap.mergedValid.Store(false)
		}
	}
	clear(sh.dirtyIn)
	sh.mu.Unlock()

	osh, snapOsh := t.outs[i], t.snap.outs[i]
	osh.mu.Lock()
	if len(osh.dirtyOut) > 0 {
		// Only membership changes dirty an outref, and a patched entry is a
		// new struct: either way the shadow's sorted caches are stale.
		t.snap.outMembershipChanged(snapOsh)
	}
	for target := range osh.dirtyOut {
		if liveO, ok := osh.outrefs[target]; ok {
			snapOsh.outrefs[target] = &Outref{
				Target:        liveO.Target,
				Distance:      liveO.Distance,
				Pins:          liveO.Pins,
				Barrier:       liveO.Barrier,
				BackThreshold: liveO.BackThreshold,
			}
		} else {
			delete(snapOsh.outrefs, target)
		}
	}
	clear(osh.dirtyOut)
	osh.mu.Unlock()
}

// ResetTraceSnapshot discards the shadow copy so the next TraceSnapshot is
// a fresh deep copy (used after an abandoned trace consumed the dirty
// sets).
func (t *Table) ResetTraceSnapshot() {
	t.snap = nil
	if t.tracking {
		for i := range t.ins {
			t.ins[i].mu.Lock()
			clear(t.ins[i].dirtyIn)
			t.ins[i].mu.Unlock()
			t.outs[i].mu.Lock()
			clear(t.outs[i].dirtyOut)
			t.outs[i].mu.Unlock()
		}
	}
}

// ResetBarriers clears the transfer-barrier clean marks on every ioref;
// the local trace calls this when it installs freshly computed distances
// and back information (Section 6.1.1: barrier-cleaned outrefs "remain
// clean until the site does the next local trace").
func (t *Table) ResetBarriers() {
	for _, sh := range t.ins {
		sh.mu.Lock()
		for _, in := range sh.inrefs {
			in.Barrier = false
		}
		sh.mu.Unlock()
	}
	for _, sh := range t.outs {
		sh.mu.Lock()
		for _, o := range sh.outrefs {
			o.Barrier = false
		}
		sh.mu.Unlock()
	}
}
