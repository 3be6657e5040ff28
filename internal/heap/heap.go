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
// Snapshot hands out frozen views that share pages with the live heap.
// Every page carries the epoch of the heap that may write it in place;
// Snapshot advances the epoch, so the first write to an older page swaps it
// in the live directory for a private clone, and the page the view holds is
// never written again. A cut therefore costs O(pages) pointer copies, and a
// page written while a view is alive costs one extra version per view.
//
// A Heap is not safe for concurrent use: the owning Site's lock guards it.
// A view is a Heap of its own that nothing writes, so the local trace and
// the checkpoint read it off the site lock, through SlotFields and
// EachObject.
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
// site pays a page for every id window holding a live object, plus a page
// of marks, and a page written while a view is alive is copied whole. At
// 256 slots (8 KB) a ring-churn site, 1 000 objects with ids spread by
// garbage churn, stays near its map-based footprint; 4 096-slot pages would
// add megabytes across a cluster.
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

// page is PageSlots consecutive slots, the count of live ones among them,
// and the epoch of the heap that may write it in place.
type page struct {
	slots [PageSlots]slot
	n     int
	epoch uint64
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

	// epoch is what this heap's own pages carry; Snapshot advances it, so
	// every page a view may share is older. copied counts the pages the
	// write barrier cloned.
	epoch  uint64
	copied int
}

// New creates an empty heap for the given site.
func New(site ids.SiteID) *Heap {
	return &Heap{
		site:            site,
		persistentRoots: make(map[ids.ObjID]struct{}),
		appRoots:        make(map[ids.Ref]int),
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
	p := h.writable(pn)
	if p == nil {
		p = &page{epoch: h.epoch}
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
	h.count--
	if p.n > 1 {
		p = h.writable(pn)
		p.slots[obj&pageMask] = slot{}
		p.n--
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

// writable returns page pn for writing in place, or nil. A page from an
// older epoch may be shared with a view, so it is first swapped in the
// directory for a clone of this epoch.
func (h *Heap) writable(pn int) *page {
	p := h.page(pn)
	if p != nil && p.epoch != h.epoch {
		p = p.clone()
		p.epoch = h.epoch
		h.pages[pn-h.base] = p
		h.copied++
	}
	return p
}

// mut returns obj's live slot for writing, or nil.
func (h *Heap) mut(obj ids.ObjID) *slot {
	if h.get(obj) == nil {
		return nil
	}
	return &h.writable(int(obj >> PageBits)).slots[obj&pageMask]
}

// SlotFields returns obj's fields, and whether the heap holds obj. It
// returns the heap's own field array, so it is legal only while nothing
// mutates the heap: on a view Snapshot returned, which nothing writes and
// so needs no site lock, or under the lock that guards the heap. The caller
// must not modify the fields.
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
	if root {
		h.persistentRoots[id] = struct{}{}
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
	return nil
}

// UnmarkPersistentRoot removes root status from a local object.
func (h *Heap) UnmarkPersistentRoot(obj ids.ObjID) {
	delete(h.persistentRoots, obj)
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
	s := h.mut(obj)
	if s == nil {
		return fmt.Errorf("heap %v: add field: no object %v", h.site, obj)
	}
	s.fields = append(s.fields, target)
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
	s = h.mut(obj)
	s.fields = slices.Delete(s.fields, i, i+1)
	return true, nil
}

// ClearFields removes every reference field of obj.
func (h *Heap) ClearFields(obj ids.ObjID) error {
	s := h.mut(obj)
	if s == nil {
		return fmt.Errorf("heap %v: clear fields: no object %v", h.site, obj)
	}
	s.fields = nil
	return nil
}

// Delete removes an object from the heap (called by the collector when the
// object is garbage, and by the migration baseline after moving it).
func (h *Heap) Delete(obj ids.ObjID) {
	h.remove(obj)
	delete(h.persistentRoots, obj)
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
	if root {
		h.persistentRoots[id] = struct{}{}
	}
	h.SetNextID(id)
	return nil
}

// Snapshot returns a frozen view of the heap: a copy of the page directory,
// the persistent and application roots, and the allocation high-water mark,
// sharing every page with the live heap. It advances the live heap's epoch,
// so the live heap clones a page before its first write to it and the view
// never changes; nothing retained, nothing to reset. The view may be read
// off the lock that guards the live heap (the local trace marks it, the
// checkpoint encodes it), and is an independent Heap: writes to it clone
// pages too.
func (h *Heap) Snapshot() *Heap {
	h.epoch++
	return &Heap{
		site:            h.site,
		next:            h.next,
		base:            h.base,
		pages:           slices.Clone(h.pages),
		count:           h.count,
		persistentRoots: maps.Clone(h.persistentRoots),
		appRoots:        maps.Clone(h.appRoots),
		epoch:           h.epoch,
	}
}

// PagesCopied returns how many pages the write barrier has cloned since the
// heap was created: one for each page first written after a Snapshot.
func (h *Heap) PagesCopied() int { return h.copied }

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
func (h *Heap) AddAppRoot(r ids.Ref) { h.appRoots[r]++ }

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
