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
// Each of the two tables has one sorted-order cache. A local trace reads
// neither table: it reads a Cut, the rows it needs copied out under the
// owning Site's lock. A Table is not safe for concurrent use: that lock
// guards it.
package refs

import (
	"cmp"
	"math"
	"slices"

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
	// Sent is the distance last sent to the target's owner in an Update,
	// zero when none stands (a traced outref's distance is at least one).
	// A partial Update carries only the distances that differ from it; a
	// commit zeroes it when its trace does not reach the outref.
	Sent int
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

// inrefTable is the inref table. Its sorted order is cached until its
// membership changes, so the per-trace sorted scan does not re-sort an
// unchanged table.
type inrefTable struct {
	inrefs map[ids.ObjID]*Inref

	// sorted caches the inrefs ordered by object identifier; it is
	// invalidated only when membership changes (insert or remove), not on
	// distance or flag updates.
	sorted      []*Inref
	sortedValid bool

	// bySource indexes the inrefs by source site: bySource[q] holds every
	// object whose source list names q. AddSource, RemoveSource,
	// RemoveInref and SetSource maintain it, so an update from q reconciles
	// only the inrefs that list q (EachSourceOf) instead of scanning the
	// table.
	bySource map[ids.SiteID]map[ids.ObjID]struct{}
}

// indexSource records that obj's source list names src.
func (it *inrefTable) indexSource(src ids.SiteID, obj ids.ObjID) {
	objs := it.bySource[src]
	if objs == nil {
		if it.bySource == nil {
			it.bySource = make(map[ids.SiteID]map[ids.ObjID]struct{})
		}
		objs = make(map[ids.ObjID]struct{})
		it.bySource[src] = objs
	}
	objs[obj] = struct{}{}
}

// unindexSource forgets that obj's source list names src.
func (it *inrefTable) unindexSource(src ids.SiteID, obj ids.ObjID) {
	objs := it.bySource[src]
	delete(objs, obj)
	if len(objs) == 0 {
		delete(it.bySource, src)
	}
}

// outrefTable is the outref table. Like inrefTable it caches its sorted
// order until its membership changes.
type outrefTable struct {
	outrefs     map[ids.Ref]*Outref
	sorted      []*Outref
	sortedValid bool
}

// Table holds one site's inref and outref tables.
type Table struct {
	site ids.SiteID
	in   inrefTable
	out  outrefTable

	// defaultBackThreshold initializes the BackThreshold of new iorefs
	// (the paper's T2, Section 4.3).
	defaultBackThreshold int
}

// NewTable creates empty tables for a site. backThreshold is the initial
// per-ioref back threshold T2.
func NewTable(site ids.SiteID, backThreshold int) *Table {
	t := &Table{site: site, defaultBackThreshold: backThreshold}
	t.in.inrefs = make(map[ids.ObjID]*Inref)
	t.out.outrefs = make(map[ids.Ref]*Outref)
	return t
}

// Site returns the owning site.
func (t *Table) Site() ids.SiteID { return t.site }

// --- inrefs --------------------------------------------------------------

// Inref returns the inref for a local object, if present.
func (t *Table) Inref(obj ids.ObjID) (*Inref, bool) {
	in, ok := t.in.inrefs[obj]
	return in, ok
}

// EnsureInref returns the inref for obj, creating an empty one if absent.
func (t *Table) EnsureInref(obj ids.ObjID) *Inref {
	in, ok := t.in.inrefs[obj]
	if !ok {
		in = &Inref{
			Obj:           obj,
			Sources:       make(map[ids.SiteID]int),
			BackThreshold: t.defaultBackThreshold,
		}
		t.in.inrefs[obj] = in
		t.in.sortedValid = false
	}
	return in
}

// AddSource records that a source site holds a reference to obj. If the
// source is new its distance is conservatively set to 1 (Section 3); an
// existing source's distance is left unchanged.
func (t *Table) AddSource(obj ids.ObjID, src ids.SiteID) *Inref {
	in := t.EnsureInref(obj)
	if _, ok := in.Sources[src]; !ok {
		in.Sources[src] = 1
		t.in.indexSource(src, obj)
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
	in, ok := t.in.inrefs[obj]
	if !ok {
		return
	}
	if old, ok := in.Sources[src]; !ok || old == dist {
		return
	}
	in.Sources[src] = dist
}

// UpdateSourceDistances applies n distance changes reported by src — the
// i'th sets obj's distance to dist, where obj, dist = at(i) — like
// SetSourceDistance. It returns how many of the objects' inrefs list src,
// and the inrefs a change turned from suspected to clean at threshold,
// which fire the clean rule (Section 6.4).
func (t *Table) UpdateSourceDistances(src ids.SiteID, n int, at func(i int) (ids.ObjID, int), threshold int) (listed int, cleaned []ids.ObjID) {
	for i := 0; i < n; i++ {
		obj, dist := at(i)
		in, ok := t.in.inrefs[obj]
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
		if turnedClean(in, src, old, dist, threshold) {
			cleaned = append(cleaned, obj)
		}
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
	in, ok := t.in.inrefs[obj]
	if !ok {
		return false
	}
	if _, had := in.Sources[src]; had {
		delete(in.Sources, src)
		t.in.unindexSource(src, obj)
	}
	if len(in.Sources) == 0 {
		delete(t.in.inrefs, obj)
		t.in.sortedValid = false
		return true
	}
	return false
}

// RemoveInref deletes an inref outright (collector cleanup).
func (t *Table) RemoveInref(obj ids.ObjID) {
	in, ok := t.in.inrefs[obj]
	if !ok {
		return
	}
	for src := range in.Sources {
		t.in.unindexSource(src, obj)
	}
	delete(t.in.inrefs, obj)
	t.in.sortedValid = false
}

// FlagGarbage sets the inref's garbage flag (a back trace confirmed it
// garbage in its report phase, Section 4.5); the next Cut leaves the inref
// out of its roots.
func (t *Table) FlagGarbage(obj ids.ObjID) {
	in, ok := t.in.inrefs[obj]
	if !ok || in.Garbage {
		return
	}
	in.Garbage = true
}

// Inrefs returns all inrefs ordered by object identifier. The slice is a
// cache owned by the table: callers must not modify it, and it is valid
// until the next insert or remove, which makes the next call re-sort.
func (t *Table) Inrefs() []*Inref {
	if !t.in.sortedValid {
		t.in.sorted = t.in.sorted[:0]
		for _, in := range t.in.inrefs {
			t.in.sorted = append(t.in.sorted, in)
		}
		slices.SortFunc(t.in.sorted, func(a, b *Inref) int { return cmp.Compare(a.Obj, b.Obj) })
		t.in.sortedValid = true
	}
	return t.in.sorted
}

// NumInrefs returns the number of inrefs.
func (t *Table) NumInrefs() int { return len(t.in.inrefs) }

// SourceCount returns the number of inrefs whose source lists name src.
func (t *Table) SourceCount(src ids.SiteID) int { return len(t.in.bySource[src]) }

// EachSourceOf invokes fn for every object whose inref lists src as a
// source, in unspecified order, visiting only those inrefs (the source
// index). fn must not add or remove sources or inrefs.
func (t *Table) EachSourceOf(src ids.SiteID, fn func(obj ids.ObjID)) {
	for obj := range t.in.bySource[src] {
		fn(obj)
	}
}

// --- outrefs -------------------------------------------------------------

// Outref returns the outref for a remote target, if present.
func (t *Table) Outref(target ids.Ref) (*Outref, bool) {
	o, ok := t.out.outrefs[target]
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
	o, ok := t.out.outrefs[target]
	if !ok {
		o = &Outref{
			Target:        target,
			Distance:      1,
			Barrier:       true,
			BackThreshold: t.defaultBackThreshold,
		}
		t.out.outrefs[target] = o
		created = true
		t.out.sortedValid = false
	}
	return o, created
}

// RemoveOutref deletes an outref (trimmed after a local trace).
func (t *Table) RemoveOutref(target ids.Ref) {
	if _, ok := t.out.outrefs[target]; !ok {
		return
	}
	delete(t.out.outrefs, target)
	t.out.sortedValid = false
}

// Outrefs returns all outrefs ordered by target reference. The slice is a
// cache owned by the table: callers must not modify it. It is rebuilt only
// after a membership change, into a new slice, so a slice already returned
// keeps listing the outrefs present when it was built.
func (t *Table) Outrefs() []*Outref {
	if !t.out.sortedValid {
		sorted := make([]*Outref, 0, len(t.out.outrefs))
		for _, o := range t.out.outrefs {
			sorted = append(sorted, o)
		}
		slices.SortFunc(sorted, func(a, b *Outref) int { return a.Target.Compare(b.Target) })
		t.out.sorted, t.out.sortedValid = sorted, true
	}
	return t.out.sorted
}

// NumOutrefs returns the number of outrefs.
func (t *Table) NumOutrefs() int { return len(t.out.outrefs) }

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

// Root is one inref as a local trace reads it: the local object and the
// inref's distance.
type Root struct {
	Obj      ids.ObjID
	Distance int
}

// Cut is what a local trace reads of the tables, copied out so that the
// trace can run off the site lock while the tables keep changing: the
// roots (every inref not flagged garbage, ascending by object) and the
// outref targets (ascending). The Section 6.2 double buffering needs no
// more: the trace seeds its mark from the roots, and it reads the outrefs
// only to see which exist.
type Cut struct {
	Roots   []Root
	Outrefs []ids.Ref
}

// Cut copies the rows a local trace reads, in O(inrefs + outrefs).
func (t *Table) Cut() Cut {
	c := Cut{
		Roots:   make([]Root, 0, len(t.in.inrefs)),
		Outrefs: make([]ids.Ref, 0, len(t.out.outrefs)),
	}
	for _, in := range t.Inrefs() {
		if !in.Garbage {
			c.Roots = append(c.Roots, Root{Obj: in.Obj, Distance: in.Distance()})
		}
	}
	for _, o := range t.Outrefs() {
		c.Outrefs = append(c.Outrefs, o.Target)
	}
	return c
}

// HasOutref reports whether the cut lists an outref for target.
func (c Cut) HasOutref(target ids.Ref) bool {
	_, ok := slices.BinarySearchFunc(c.Outrefs, target, ids.Ref.Compare)
	return ok
}

// ResetBarriers clears the transfer-barrier clean marks on every ioref;
// the local trace calls this when it installs freshly computed distances
// and back information (Section 6.1.1: barrier-cleaned outrefs "remain
// clean until the site does the next local trace").
func (t *Table) ResetBarriers() {
	for _, in := range t.in.inrefs {
		in.Barrier = false
	}
	for _, o := range t.out.outrefs {
		o.Barrier = false
	}
}
