// Package heap implements a site's local object store: objects with
// reference fields, persistent roots, and application roots (the mutator's
// local variables, Section 2 and Section 6.3 of the paper).
//
// The store keeps its objects in fixed pages of PageSlots slots indexed by
// object id: a slot holds the object's fields, size and presence inline, so
// finding an object is a shift and a mask, not a hash. A page is allocated
// when its first object arrives and freed when its last one goes, and the
// page directory spans only the pages between the lowest and highest live
// page: one pointer per PageSlots ids of that span. Object ids are never
// recycled — remote outrefs name them — so a long-lived site's ids keep
// climbing while its directory follows the live ids.
//
// A Heap is not safe for concurrent use: the owning Site's lock guards it,
// and the trace snapshot it hands out belongs to the site's trace mutex,
// which is what lets the local trace read it through SlotFields off-lock.
package heap

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"backtrace/internal/ids"
)

// PageBits sets the page size, PageSlots slots of 32 bytes. The trace only
// needs a page to span many cache lines; memory wants it small, because a
// site pays a page for every id window holding a live object, twice (live
// heap and trace snapshot) plus a page of marks. At 256 slots (8 KB) a
// ring-churn site, 1 000 objects with ids spread by garbage churn, stays
// near its map-based footprint; 4 096-slot pages would add megabytes across
// a cluster.
const (
	PageBits  = 8
	PageSlots = 1 << PageBits
	pageMask  = PageSlots - 1
)

// DefaultObjectSize is the nominal payload size of objects allocated
// without an explicit size.
const DefaultObjectSize = 64

// slot is one object's storage: its reference fields, its nominal payload
// size in bytes (accounting only, e.g. the bytes the migration baseline
// moves), and whether the slot holds an object at all.
type slot struct {
	fields []ids.Ref
	size   int32
	live   bool
}

// page is PageSlots consecutive slots and the count of live ones among
// them.
type page struct {
	slots [PageSlots]slot
	n     int
}

// clone copies the page, packing the fields of its objects into one array
// in slot order, so a trace over the copy reads fields in id order. Each
// slot's fields are capped at their length: appending to one reallocates
// instead of overwriting its neighbour's.
func (p *page) clone() *page {
	total := 0
	for i := range p.slots {
		total += len(p.slots[i].fields)
	}
	arena := make([]ids.Ref, 0, total)
	cp := &page{n: p.n}
	for i := range p.slots {
		s := &p.slots[i]
		if !s.live {
			continue
		}
		start := len(arena)
		arena = append(arena, s.fields...)
		cp.slots[i] = slot{fields: arena[start:len(arena):len(arena)], size: s.size, live: true}
	}
	return cp
}

// Heap is one site's object store.
type Heap struct {
	site ids.SiteID
	next uint64 // allocation high-water mark (ids.ObjID)

	// pages[i] holds the slots of ids [(base+i)*PageSlots,
	// (base+i+1)*PageSlots); it is nil when that range holds no object. The
	// first and last entries are never nil.
	base  int
	pages []*page
	count int // live objects

	persistentRoots map[ids.ObjID]struct{}
	// appRoots counts mutator variables holding each reference; the
	// reference may be local or remote. Local tracing treats these as
	// roots (Section 6.3), and remote entries keep the corresponding
	// outrefs live and clean.
	appRoots map[ids.Ref]int

	// --- trace-snapshot write barrier (see TraceSnapshot) ---

	// Every mutation records what it touched in the dirty sets, so
	// TraceSnapshot patches its shadow copy in O(dirty) instead of deep
	// copying the heap. dirtyObjs names objects whose existence or fields
	// may differ from the shadow copy (allocated, deleted, or field-mutated
	// since the last snapshot); dirtyPersist and dirtyAppRoots are the same
	// for root status.
	dirtyObjs     map[ids.ObjID]struct{}
	dirtyPersist  map[ids.ObjID]struct{}
	dirtyAppRoots map[ids.Ref]struct{}
	// snap is the shadow copy maintained by TraceSnapshot: a second Heap
	// that mirrors this one as of the last snapshot. It shares no pages or
	// field arrays with the live heap, so a local trace may read it
	// off-lock while mutators keep writing here.
	snap *Heap
}

// New creates an empty heap for the given site.
func New(site ids.SiteID) *Heap {
	return &Heap{
		site:            site,
		persistentRoots: make(map[ids.ObjID]struct{}),
		appRoots:        make(map[ids.Ref]int),
		dirtyObjs:       make(map[ids.ObjID]struct{}),
		dirtyPersist:    make(map[ids.ObjID]struct{}),
		dirtyAppRoots:   make(map[ids.Ref]struct{}),
	}
}

// page returns the page with page number pn, or nil.
func (h *Heap) page(pn int) *page {
	i := pn - h.base
	if uint(i) >= uint(len(h.pages)) {
		return nil
	}
	return h.pages[i]
}

// get returns obj's live slot, or nil.
func (h *Heap) get(obj ids.ObjID) *slot {
	p := h.page(int(obj >> PageBits))
	if p == nil || !p.slots[obj&pageMask].live {
		return nil
	}
	return &p.slots[obj&pageMask]
}

// put stores an object under obj, allocating its page (and widening the
// directory) if needed; fields become the slot's own.
func (h *Heap) put(obj ids.ObjID, fields []ids.Ref, size int32) {
	pn := int(obj >> PageBits)
	switch {
	case len(h.pages) == 0:
		h.base, h.pages = pn, []*page{nil}
	case pn < h.base:
		h.pages = append(make([]*page, h.base-pn, h.base-pn+len(h.pages)), h.pages...)
		h.base = pn
	}
	for pn-h.base >= len(h.pages) {
		h.pages = append(h.pages, nil)
	}
	p := h.pages[pn-h.base]
	if p == nil {
		p = new(page)
		h.pages[pn-h.base] = p
	}
	s := &p.slots[obj&pageMask]
	if !s.live {
		p.n++
		h.count++
	}
	*s = slot{fields: fields, size: size, live: true}
}

// remove deletes obj's slot, freeing its page when it was the last one
// there and trimming empty pages off the directory's ends.
func (h *Heap) remove(obj ids.ObjID) {
	pn := int(obj >> PageBits)
	p := h.page(pn)
	if p == nil || !p.slots[obj&pageMask].live {
		return
	}
	p.slots[obj&pageMask] = slot{}
	h.count--
	if p.n--; p.n > 0 {
		return
	}
	h.pages[pn-h.base] = nil
	for len(h.pages) > 0 && h.pages[0] == nil {
		h.pages = h.pages[1:]
		h.base++
	}
	for len(h.pages) > 0 && h.pages[len(h.pages)-1] == nil {
		h.pages = h.pages[:len(h.pages)-1]
	}
}

// SlotFields returns obj's fields, and whether the heap holds obj. It
// returns the heap's own field array, so it is legal only while nothing
// mutates the heap: on the snapshot TraceSnapshot returned, which belongs
// to the local trace until the next TraceSnapshot (the owning site's trace
// mutex orders the two) and so needs no site lock, or on a heap nobody else
// is using. The caller must not modify the fields.
func (h *Heap) SlotFields(obj ids.ObjID) ([]ids.Ref, bool) {
	s := h.get(obj)
	if s == nil {
		return nil, false
	}
	return s.fields, true
}

// PageSpan returns the page numbers [base, base+n) that the directory
// spans.
func (h *Heap) PageSpan() (base, n int) { return h.base, len(h.pages) }

// HasPage reports whether the heap holds a page numbered pn.
func (h *Heap) HasPage(pn int) bool { return h.page(pn) != nil }

// clearDirty empties the dirty sets.
func (h *Heap) clearDirty() {
	clear(h.dirtyObjs)
	clear(h.dirtyPersist)
	clear(h.dirtyAppRoots)
}

// Site returns the owning site's identifier.
func (h *Heap) Site() ids.SiteID { return h.site }

// Len returns the number of objects in the heap.
func (h *Heap) Len() int { return h.count }

// Alloc creates a new object with no fields and DefaultObjectSize payload,
// returning its fully qualified reference.
func (h *Heap) Alloc() ids.Ref { return h.AllocSized(DefaultObjectSize) }

// AllocSized creates a new object with the given nominal payload size (at
// most math.MaxInt32).
func (h *Heap) AllocSized(size int) ids.Ref {
	return h.create(nil, size, false)
}

// AllocRoot creates a new object and marks it a persistent root.
func (h *Heap) AllocRoot() ids.Ref { return h.create(nil, DefaultObjectSize, true) }

// create stores a new object under a fresh id.
func (h *Heap) create(fields []ids.Ref, size int, root bool) ids.Ref {
	h.next++
	id := ids.ObjID(h.next)
	h.put(id, fields, int32(size))
	h.dirtyObjs[id] = struct{}{}
	if root {
		h.persistentRoots[id] = struct{}{}
		h.dirtyPersist[id] = struct{}{}
	}
	return ids.MakeRef(h.site, id)
}

// MarkPersistentRoot designates an existing local object as a persistent
// root (an entry point into the store, such as a name server or directory).
func (h *Heap) MarkPersistentRoot(obj ids.ObjID) error {
	if h.get(obj) == nil {
		return fmt.Errorf("heap %v: mark root: no object %v", h.site, obj)
	}
	h.persistentRoots[obj] = struct{}{}
	h.dirtyPersist[obj] = struct{}{}
	return nil
}

// UnmarkPersistentRoot removes root status from a local object.
func (h *Heap) UnmarkPersistentRoot(obj ids.ObjID) {
	delete(h.persistentRoots, obj)
	h.dirtyPersist[obj] = struct{}{}
}

// PersistentRoots returns the local persistent roots in ascending order.
func (h *Heap) PersistentRoots() []ids.ObjID {
	var out []ids.ObjID
	for o := range h.persistentRoots {
		out = append(out, o)
	}
	slices.Sort(out)
	return out
}

// FieldsOf returns a copy of an object's reference fields, which the caller
// may keep after the site lock is released.
func (h *Heap) FieldsOf(obj ids.ObjID) ([]ids.Ref, bool) {
	s := h.get(obj)
	if s == nil {
		return nil, false
	}
	return append(make([]ids.Ref, 0, len(s.fields)), s.fields...), true
}

// Contains reports whether the heap holds the object.
func (h *Heap) Contains(obj ids.ObjID) bool { return h.get(obj) != nil }

// EachID calls fn for every object id in ascending order: one walk over the
// directory's live pages.
func (h *Heap) EachID(fn func(obj ids.ObjID)) {
	for j, p := range h.pages {
		if p == nil {
			continue
		}
		first := ids.ObjID(h.base+j) << PageBits
		for k := range p.slots {
			if p.slots[k].live {
				fn(first + ids.ObjID(k))
			}
		}
	}
}

// EachObject calls fn for every object in ascending id order with its
// fields, size and persistent-root status. fields is the heap's own array,
// valid only during the call.
func (h *Heap) EachObject(fn func(obj ids.ObjID, fields []ids.Ref, size int, root bool)) {
	h.EachID(func(obj ids.ObjID) {
		s := h.get(obj)
		_, root := h.persistentRoots[obj]
		fn(obj, s.fields, int(s.size), root)
	})
}

// AddField appends a reference field to a local object (reference
// creation: "copying a reference z into object y", Section 6.1).
func (h *Heap) AddField(obj ids.ObjID, target ids.Ref) error {
	s := h.get(obj)
	if s == nil {
		return fmt.Errorf("heap %v: add field: no object %v", h.site, obj)
	}
	s.fields = append(s.fields, target)
	h.dirtyObjs[obj] = struct{}{}
	return nil
}

// RemoveField deletes the first field of obj equal to target (reference
// deletion). It reports whether a field was removed.
func (h *Heap) RemoveField(obj ids.ObjID, target ids.Ref) (bool, error) {
	s := h.get(obj)
	if s == nil {
		return false, fmt.Errorf("heap %v: remove field: no object %v", h.site, obj)
	}
	i := slices.Index(s.fields, target)
	if i < 0 {
		return false, nil
	}
	s.fields = slices.Delete(s.fields, i, i+1)
	h.dirtyObjs[obj] = struct{}{}
	return true, nil
}

// ClearFields removes every reference field of obj.
func (h *Heap) ClearFields(obj ids.ObjID) error {
	s := h.get(obj)
	if s == nil {
		return fmt.Errorf("heap %v: clear fields: no object %v", h.site, obj)
	}
	s.fields = nil
	h.dirtyObjs[obj] = struct{}{}
	return nil
}

// Delete removes an object from the heap (called by the collector when the
// object is garbage, and by the migration baseline after moving it).
func (h *Heap) Delete(obj ids.ObjID) {
	h.remove(obj)
	delete(h.persistentRoots, obj)
	h.dirtyObjs[obj] = struct{}{}
	h.dirtyPersist[obj] = struct{}{}
}

// Install recreates an object under a specific identifier (checkpoint
// recovery). It fails if the identifier is already in use or the size does
// not fit a slot.
func (h *Heap) Install(id ids.ObjID, fields []ids.Ref, size int, root bool) error {
	if id == ids.NoObj {
		return fmt.Errorf("heap %v: install: zero object id", h.site)
	}
	if size < 0 || size > math.MaxInt32 {
		return fmt.Errorf("heap %v: install: object %v has size %d", h.site, id, size)
	}
	if h.get(id) != nil {
		return fmt.Errorf("heap %v: install: object %v already exists", h.site, id)
	}
	h.put(id, slices.Clone(fields), int32(size))
	h.dirtyObjs[id] = struct{}{}
	if root {
		h.persistentRoots[id] = struct{}{}
		h.dirtyPersist[id] = struct{}{}
	}
	h.SetNextID(id)
	return nil
}

// Snapshot returns a deep copy of the heap: objects (with copied field
// arrays), persistent roots, application roots, and the allocation
// high-water mark. It copies page by page, so the copy's fields lie in id
// order. The copy shares nothing with the original, so a local trace can
// read it off the site lock while mutators keep modifying the live heap.
// Sites reach it only through TraceSnapshot, whose first cut it is; tests
// also use it as an independent copy to run their reference trace on.
func (h *Heap) Snapshot() *Heap {
	cp := New(h.site)
	cp.next, cp.base, cp.count = h.next, h.base, h.count
	cp.pages = make([]*page, len(h.pages))
	cp.persistentRoots, cp.appRoots = maps.Clone(h.persistentRoots), maps.Clone(h.appRoots)
	for j, p := range h.pages {
		if p != nil {
			cp.pages[j] = p.clone()
		}
	}
	return cp
}

// TraceSnapshot returns a read-only snapshot of the heap. The first call
// deep-copies the whole heap; subsequent calls patch the retained shadow copy from the dirty sets, in
// O(dirty), so an idle heap snapshots in O(1) regardless of size.
//
// The returned heap is the shadow copy itself: it shares no pages or field
// arrays with the live heap (an off-lock trace may read it while mutators
// write here), but it is patched in place by the NEXT TraceSnapshot call —
// the caller must be done with it by then. The site's trace mutex provides
// exactly that serialization, and is what makes SlotFields legal on it.
func (h *Heap) TraceSnapshot() *Heap {
	if h.snap == nil {
		h.snap = h.Snapshot()
		h.clearDirty()
		return h.snap
	}
	h.patchSnapshot()
	return h.snap
}

// patchSnapshot brings the shadow copy up to date from the dirty sets,
// leaving it exactly what Snapshot would copy. The shadow is owned
// exclusively by the snapshot lineage (the site's trace mutex).
func (h *Heap) patchSnapshot() {
	snap := h.snap
	snap.next = h.next
	for obj := range h.dirtyObjs {
		ls, ss := h.get(obj), snap.get(obj)
		switch {
		case ls == nil:
			snap.remove(obj)
		case ss == nil || ss.size != ls.size || !slices.Equal(ss.fields, ls.fields):
			snap.put(obj, slices.Clone(ls.fields), ls.size)
		}
	}
	for obj := range h.dirtyPersist {
		if _, ok := h.persistentRoots[obj]; ok {
			snap.persistentRoots[obj] = struct{}{}
		} else {
			delete(snap.persistentRoots, obj)
		}
	}
	for r := range h.dirtyAppRoots {
		if n := h.appRoots[r]; n > 0 {
			snap.appRoots[r] = n
		} else {
			delete(snap.appRoots, r)
		}
	}
	h.clearDirty()
}

// ResetTraceSnapshot discards the shadow copy so the next TraceSnapshot is
// a fresh deep copy. Used when a trace built on the snapshot lineage was
// abandoned (the dirty sets it consumed are gone) and after wholesale state
// replacement.
func (h *Heap) ResetTraceSnapshot() {
	h.snap = nil
	h.clearDirty()
}

// NextID returns the allocation high-water mark (for checkpointing).
func (h *Heap) NextID() ids.ObjID { return ids.ObjID(h.next) }

// SetNextID raises the allocation high-water mark (checkpoint recovery);
// it never lowers it.
func (h *Heap) SetNextID(n ids.ObjID) { h.next = max(h.next, uint64(n)) }

// Adopt installs an object received from another site under a fresh local
// identifier (used by the migration baseline) and returns its new local
// reference. The object's fields are supplied by the caller.
func (h *Heap) Adopt(fields []ids.Ref, size int) ids.Ref {
	return h.create(slices.Clone(fields), size, false)
}

// --- application roots --------------------------------------------------

// AddAppRoot records that a mutator variable on this site holds the given
// reference (local or remote). Multiple holds are counted.
func (h *Heap) AddAppRoot(r ids.Ref) {
	h.appRoots[r]++
	h.dirtyAppRoots[r] = struct{}{}
}

// RemoveAppRoot releases one mutator-variable hold on the reference. It
// reports whether a hold existed.
func (h *Heap) RemoveAppRoot(r ids.Ref) bool {
	n, ok := h.appRoots[r]
	if !ok {
		return false
	}
	if n <= 1 {
		delete(h.appRoots, r)
	} else {
		h.appRoots[r] = n - 1
	}
	h.dirtyAppRoots[r] = struct{}{}
	return true
}

// AppRoots returns the distinct references held by mutator variables, in
// ascending order.
func (h *Heap) AppRoots() []ids.Ref {
	var out []ids.Ref
	for r := range h.appRoots {
		out = append(out, r)
	}
	slices.SortFunc(out, ids.Ref.Compare)
	return out
}

// HoldsAppRoot reports whether any mutator variable holds the reference.
func (h *Heap) HoldsAppRoot(r ids.Ref) bool { return h.appRoots[r] > 0 }
