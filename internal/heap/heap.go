// Package heap implements a site's local object store: objects with
// reference fields, persistent roots, and application roots (the mutator's
// local variables, Section 2 and Section 6.3 of the paper).
//
// The store is split into N shards by object id (id % N). A shard keeps its
// objects in fixed pages of PageSlots slots indexed by the id's position
// within the shard (id / N): a slot holds the object's fields, size and
// presence inline, so finding an object is a division, a shift and a mask,
// not a hash. A page is allocated when its first object arrives and freed
// when its last one goes, and the shard's page directory spans only the
// pages between its lowest and highest live page: one pointer per
// PageSlots·N ids of that span. Object ids are never recycled — remote
// outrefs name them — so a long-lived site's ids keep climbing while its
// directory follows the live ids.
//
// Each shard owns its own lock, its own root maps, its own write-barrier
// dirty set, and its own pages of the copy-on-write trace snapshot, so
// mutator operations touching distinct shards do not contend and trace
// snapshots patch shards concurrently. Single-key operations are safe for
// concurrent use; whole-heap operations (Snapshot, TraceSnapshot,
// EachObject) rely on the owning Site to exclude concurrent
// mutators — the Site takes its write lock for those, and its read lock plus
// the per-shard locks for the short mutator critical sections the paper's
// model assumes. The local trace reads its snapshot through SlotFields,
// which takes no lock at all (see there).
package heap

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"backtrace/internal/ids"
)

// PageBits sets the page size, PageSlots slots of 32 bytes. The trace only
// needs a page to span many cache lines; memory wants it small, because a
// site pays a page per shard for every id window holding a live object,
// twice (live heap and trace snapshot) plus a page of marks. At 256 slots
// (8 KB) a ring-churn site, 1 000 objects on 2 shards with ids spread by
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

// page is PageSlots consecutive slots of one shard and the count of live
// ones among them.
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

// shard is one partition of the store. The mutex guards everything in the
// shard; the dirty sets exist only while delta tracking is enabled.
type shard struct {
	mu sync.RWMutex
	// pages[i] holds the slots of shard-local indexes [(base+i)*PageSlots,
	// (base+i+1)*PageSlots); it is nil when that range holds no object. The
	// first and last entries are never nil.
	base  int
	pages []*page
	count int // live objects

	persistentRoots map[ids.ObjID]struct{}
	// appRoots counts mutator variables holding each reference; the
	// reference may be local or remote. Local tracing treats these as
	// roots (Section 6.3), and remote entries keep the corresponding
	// outrefs live and clean. Sharded by the reference's object id.
	appRoots map[ids.Ref]int

	// --- trace-snapshot write barrier (see TraceSnapshot) ---

	// dirtyObjs names objects whose existence or fields may differ from
	// the shadow shard (allocated, deleted, or field-mutated since the
	// last snapshot); dirtyPersist and dirtyAppRoots are the same for
	// root status.
	dirtyObjs     map[ids.ObjID]struct{}
	dirtyPersist  map[ids.ObjID]struct{}
	dirtyAppRoots map[ids.Ref]struct{}
}

func newShard() *shard {
	return &shard{
		persistentRoots: make(map[ids.ObjID]struct{}),
		appRoots:        make(map[ids.Ref]int),
	}
}

// page returns the page with page number pn, or nil.
func (sh *shard) page(pn int) *page {
	i := pn - sh.base
	if uint(i) >= uint(len(sh.pages)) {
		return nil
	}
	return sh.pages[i]
}

// get returns the live slot at a shard-local index, or nil.
func (sh *shard) get(local uint64) *slot {
	p := sh.page(int(local >> PageBits))
	if p == nil || !p.slots[local&pageMask].live {
		return nil
	}
	return &p.slots[local&pageMask]
}

// put stores an object at a shard-local index, allocating its page (and
// widening the directory) if needed; fields become the slot's own.
func (sh *shard) put(local uint64, fields []ids.Ref, size int32) {
	pn := int(local >> PageBits)
	switch {
	case len(sh.pages) == 0:
		sh.base, sh.pages = pn, []*page{nil}
	case pn < sh.base:
		sh.pages = append(make([]*page, sh.base-pn, sh.base-pn+len(sh.pages)), sh.pages...)
		sh.base = pn
	}
	for pn-sh.base >= len(sh.pages) {
		sh.pages = append(sh.pages, nil)
	}
	p := sh.pages[pn-sh.base]
	if p == nil {
		p = new(page)
		sh.pages[pn-sh.base] = p
	}
	s := &p.slots[local&pageMask]
	if !s.live {
		p.n++
		sh.count++
	}
	*s = slot{fields: fields, size: size, live: true}
}

// remove deletes the object at a shard-local index, freeing its page when
// it was the last one there and trimming empty pages off the directory's
// ends.
func (sh *shard) remove(local uint64) {
	pn := int(local >> PageBits)
	p := sh.page(pn)
	if p == nil || !p.slots[local&pageMask].live {
		return
	}
	p.slots[local&pageMask] = slot{}
	sh.count--
	if p.n--; p.n > 0 {
		return
	}
	sh.pages[pn-sh.base] = nil
	for len(sh.pages) > 0 && sh.pages[0] == nil {
		sh.pages = sh.pages[1:]
		sh.base++
	}
	for len(sh.pages) > 0 && sh.pages[len(sh.pages)-1] == nil {
		sh.pages = sh.pages[:len(sh.pages)-1]
	}
}

// Heap is one site's object store.
type Heap struct {
	site   ids.SiteID
	shards []*shard
	next   atomic.Uint64 // allocation high-water mark (ids.ObjID)

	// tracking, when true, makes every mutator operation record what it
	// touched in its shard's dirty set so TraceSnapshot can produce an
	// O(dirty) snapshot instead of an O(heap) deep copy. Off by
	// default: the bookkeeping is pure overhead for sites that never
	// snapshot. Written only while whole-heap exclusion holds
	// (construction or the site write lock).
	tracking bool
	// snap is the shadow copy maintained by TraceSnapshot: a second Heap
	// (same shard count) that mirrors this one as of the last snapshot.
	// It shares no pages or field arrays with the live heap, so a local
	// trace may read it off-lock while mutators keep writing here.
	snap *Heap
}

// New creates an empty single-shard heap for the given site. Library tests
// and baselines use this; sites pass an explicit shard count via
// NewSharded.
func New(site ids.SiteID) *Heap { return NewSharded(site, 1) }

// NewSharded creates an empty heap with the given shard count (clamped to
// at least 1). The shard count is fixed for the heap's lifetime and is
// inherited by its snapshots, so mark tables derived from one heap lineage
// always partition identically.
func NewSharded(site ids.SiteID, shards int) *Heap {
	if shards < 1 {
		shards = 1
	}
	h := &Heap{site: site, shards: make([]*shard, shards)}
	for i := range h.shards {
		h.shards[i] = newShard()
	}
	return h
}

// NumShards returns the heap's shard count.
func (h *Heap) NumShards() int { return len(h.shards) }

// ShardOf returns the shard index owning an object id. References are
// sharded by their object id, so local objects and the application roots
// naming them land in the same shard.
func (h *Heap) ShardOf(obj ids.ObjID) int {
	return int(uint64(obj) % uint64(len(h.shards)))
}

// Locate splits an object id, with one division by the shard count, into its
// shard (ShardOf) and its index within the shard, whose high bits select a
// page (local >> PageBits) and low bits a slot in it.
func (h *Heap) Locate(obj ids.ObjID) (shard int, local uint64) {
	n := uint64(len(h.shards))
	q := uint64(obj) / n
	return int(uint64(obj) - q*n), q
}

// lookup returns the shard owning obj and obj's index within it.
func (h *Heap) lookup(obj ids.ObjID) (*shard, uint64) {
	s, local := h.Locate(obj)
	return h.shards[s], local
}

// idAt is Locate's inverse.
func (h *Heap) idAt(shard int, local uint64) ids.ObjID {
	return ids.ObjID(local*uint64(len(h.shards)) + uint64(shard))
}

// SlotFields returns the fields of the object at a Locate position, and
// whether an object is there. It takes no lock and returns the heap's own
// field array, so it is legal only while nothing mutates the heap: on the
// snapshot TraceSnapshot returned, which belongs to the local trace until
// the next TraceSnapshot (the owning site's trace mutex orders the two), or
// on a heap nobody else is using. The caller must not modify the fields.
func (h *Heap) SlotFields(shard int, local uint64) ([]ids.Ref, bool) {
	s := h.shards[shard].get(local)
	if s == nil {
		return nil, false
	}
	return s.fields, true
}

// PageSpan returns the page numbers [base, base+n) that shard i's directory
// spans. Like SlotFields it takes no lock.
func (h *Heap) PageSpan(i int) (base, n int) {
	sh := h.shards[i]
	return sh.base, len(sh.pages)
}

// HasPage reports whether shard i holds a page numbered pn. Like SlotFields
// it takes no lock.
func (h *Heap) HasPage(i, pn int) bool { return h.shards[i].page(pn) != nil }

// EachObjectInShard calls fn with the id and shard-local index of every
// object in shard i, in ascending order. Like SlotFields it takes no lock.
func (h *Heap) EachObjectInShard(i int, fn func(obj ids.ObjID, local uint64)) {
	sh := h.shards[i]
	for j, p := range sh.pages {
		if p == nil {
			continue
		}
		first := uint64(sh.base+j) << PageBits
		for k := range p.slots {
			if p.slots[k].live {
				fn(h.idAt(i, first+uint64(k)), first+uint64(k))
			}
		}
	}
}

// EnableDeltaTracking turns on the write barrier that records dirty
// objects and roots for TraceSnapshot. Sites call this once at
// construction; it requires whole-heap exclusion (no concurrent shard
// operations).
func (h *Heap) EnableDeltaTracking() {
	if h.tracking {
		return
	}
	h.tracking = true
	for _, sh := range h.shards {
		sh.dirtyObjs = make(map[ids.ObjID]struct{})
		sh.dirtyPersist = make(map[ids.ObjID]struct{})
		sh.dirtyAppRoots = make(map[ids.Ref]struct{})
	}
}

// The touch helpers run with the shard lock held.

func (h *Heap) touchObj(sh *shard, obj ids.ObjID) {
	if h.tracking {
		sh.dirtyObjs[obj] = struct{}{}
	}
}

func (h *Heap) touchPersist(sh *shard, obj ids.ObjID) {
	if h.tracking {
		sh.dirtyPersist[obj] = struct{}{}
	}
}

func (h *Heap) touchAppRoot(sh *shard, r ids.Ref) {
	if h.tracking {
		sh.dirtyAppRoots[r] = struct{}{}
	}
}

// Site returns the owning site's identifier.
func (h *Heap) Site() ids.SiteID { return h.site }

// Len returns the number of objects in the heap.
func (h *Heap) Len() int {
	n := 0
	for _, sh := range h.shards {
		sh.mu.RLock()
		n += sh.count
		sh.mu.RUnlock()
	}
	return n
}

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
	id := ids.ObjID(h.next.Add(1))
	sh, local := h.lookup(id)
	sh.mu.Lock()
	sh.put(local, fields, int32(size))
	h.touchObj(sh, id)
	if root {
		sh.persistentRoots[id] = struct{}{}
		h.touchPersist(sh, id)
	}
	sh.mu.Unlock()
	return ids.MakeRef(h.site, id)
}

// MarkPersistentRoot designates an existing local object as a persistent
// root (an entry point into the store, such as a name server or directory).
func (h *Heap) MarkPersistentRoot(obj ids.ObjID) error {
	sh, local := h.lookup(obj)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.get(local) == nil {
		return fmt.Errorf("heap %v: mark root: no object %v", h.site, obj)
	}
	sh.persistentRoots[obj] = struct{}{}
	h.touchPersist(sh, obj)
	return nil
}

// UnmarkPersistentRoot removes root status from a local object.
func (h *Heap) UnmarkPersistentRoot(obj ids.ObjID) {
	sh := h.shards[h.ShardOf(obj)]
	sh.mu.Lock()
	delete(sh.persistentRoots, obj)
	h.touchPersist(sh, obj)
	sh.mu.Unlock()
}

// PersistentRoots returns the local persistent roots in ascending order.
func (h *Heap) PersistentRoots() []ids.ObjID {
	var out []ids.ObjID
	for _, sh := range h.shards {
		sh.mu.RLock()
		for o := range sh.persistentRoots {
			out = append(out, o)
		}
		sh.mu.RUnlock()
	}
	slices.Sort(out)
	return out
}

// FieldsOf returns a copy of an object's reference fields, taken under the
// shard lock so it is safe against concurrent field mutation.
func (h *Heap) FieldsOf(obj ids.ObjID) ([]ids.Ref, bool) {
	sh, local := h.lookup(obj)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	s := sh.get(local)
	if s == nil {
		return nil, false
	}
	return append(make([]ids.Ref, 0, len(s.fields)), s.fields...), true
}

// Contains reports whether the heap holds the object.
func (h *Heap) Contains(obj ids.ObjID) bool {
	sh, local := h.lookup(obj)
	sh.mu.RLock()
	ok := sh.get(local) != nil
	sh.mu.RUnlock()
	return ok
}

// EachObject calls fn for every object in ascending id order with its
// fields, size and persistent-root status: one walk over the pages of all
// shards in step, since id = local*N + shard. Page numbers where no shard
// holds a page cost one directory check each, so the slot scan covers live
// pages only. fields is the heap's own array, valid only during the call.
// Like Snapshot, it requires that nothing mutates the heap meanwhile (the
// site write lock).
func (h *Heap) EachObject(fn func(obj ids.ObjID, fields []ids.Ref, size int, root bool)) {
	lo, hi := 0, 0
	for _, sh := range h.shards {
		if len(sh.pages) == 0 {
			continue
		}
		if hi == 0 || sh.base < lo {
			lo = sh.base
		}
		hi = max(hi, sh.base+len(sh.pages))
	}
	pages := make([]*page, len(h.shards))
	for pn := lo; pn < hi; pn++ {
		held := false
		for i, sh := range h.shards {
			pages[i] = sh.page(pn)
			held = held || pages[i] != nil
		}
		if !held {
			continue
		}
		for k := 0; k < PageSlots; k++ {
			for i, p := range pages {
				if p == nil || !p.slots[k].live {
					continue
				}
				id := h.idAt(i, uint64(pn)<<PageBits|uint64(k))
				_, root := h.shards[i].persistentRoots[id]
				fn(id, p.slots[k].fields, int(p.slots[k].size), root)
			}
		}
	}
}

// AddField appends a reference field to a local object (reference
// creation: "copying a reference z into object y", Section 6.1).
func (h *Heap) AddField(obj ids.ObjID, target ids.Ref) error {
	sh, local := h.lookup(obj)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s := sh.get(local)
	if s == nil {
		return fmt.Errorf("heap %v: add field: no object %v", h.site, obj)
	}
	s.fields = append(s.fields, target)
	h.touchObj(sh, obj)
	return nil
}

// RemoveField deletes the first field of obj equal to target (reference
// deletion). It reports whether a field was removed.
func (h *Heap) RemoveField(obj ids.ObjID, target ids.Ref) (bool, error) {
	sh, local := h.lookup(obj)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s := sh.get(local)
	if s == nil {
		return false, fmt.Errorf("heap %v: remove field: no object %v", h.site, obj)
	}
	i := slices.Index(s.fields, target)
	if i < 0 {
		return false, nil
	}
	s.fields = slices.Delete(s.fields, i, i+1)
	h.touchObj(sh, obj)
	return true, nil
}

// ClearFields removes every reference field of obj.
func (h *Heap) ClearFields(obj ids.ObjID) error {
	sh, local := h.lookup(obj)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s := sh.get(local)
	if s == nil {
		return fmt.Errorf("heap %v: clear fields: no object %v", h.site, obj)
	}
	s.fields = nil
	h.touchObj(sh, obj)
	return nil
}

// Delete removes an object from the heap (called by the collector when the
// object is garbage, and by the migration baseline after moving it).
func (h *Heap) Delete(obj ids.ObjID) {
	sh, local := h.lookup(obj)
	sh.mu.Lock()
	sh.remove(local)
	delete(sh.persistentRoots, obj)
	h.touchObj(sh, obj)
	h.touchPersist(sh, obj)
	sh.mu.Unlock()
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
	sh, local := h.lookup(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.get(local) != nil {
		return fmt.Errorf("heap %v: install: object %v already exists", h.site, id)
	}
	sh.put(local, slices.Clone(fields), int32(size))
	h.touchObj(sh, id)
	if root {
		sh.persistentRoots[id] = struct{}{}
		h.touchPersist(sh, id)
	}
	h.SetNextID(id)
	return nil
}

// Snapshot returns a deep copy of the heap: objects (with copied field
// arrays), persistent roots, application roots, and the allocation
// high-water mark. Shards are copied concurrently, each under its own read
// lock, page by page, so the copy's fields lie in id order. The copy shares
// nothing with the original, so a local trace can read it while mutators
// keep modifying the live heap. Sites reach it only through TraceSnapshot,
// whose first cut it is; tests also use it as an independent copy to run
// their reference trace on.
func (h *Heap) Snapshot() *Heap {
	cp := NewSharded(h.site, len(h.shards))
	cp.next.Store(h.next.Load())
	h.eachShardConcurrent(func(i int) {
		src, dst := h.shards[i], cp.shards[i]
		src.mu.RLock()
		defer src.mu.RUnlock()
		dst.base, dst.count = src.base, src.count
		dst.pages = make([]*page, len(src.pages))
		for j, p := range src.pages {
			if p != nil {
				dst.pages[j] = p.clone()
			}
		}
		dst.persistentRoots = make(map[ids.ObjID]struct{}, len(src.persistentRoots))
		for o := range src.persistentRoots {
			dst.persistentRoots[o] = struct{}{}
		}
		dst.appRoots = make(map[ids.Ref]int, len(src.appRoots))
		for r, n := range src.appRoots {
			dst.appRoots[r] = n
		}
	})
	return cp
}

// eachShardConcurrent runs fn(i) for every shard index, on one goroutine
// per shard when the heap has more than one.
func (h *Heap) eachShardConcurrent(fn func(i int)) {
	if len(h.shards) == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for i := range h.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// TraceSnapshot returns a read-only snapshot of the heap. The first call
// (and any call before EnableDeltaTracking) deep-copies the whole heap;
// subsequent calls patch each shard of the retained shadow copy from that
// shard's dirty set — concurrently across shards, O(dirty) in total — so an
// idle heap snapshots in O(1) regardless of size.
//
// The returned heap is the shadow copy itself: it shares no pages or field
// arrays with the live heap (an off-lock trace may read it while mutators
// write here), but it is patched in place by the NEXT TraceSnapshot call —
// the caller must be done with it by then. The site's trace mutex provides
// exactly that serialization, and is what makes SlotFields legal on it.
func (h *Heap) TraceSnapshot() *Heap {
	if !h.tracking {
		h.EnableDeltaTracking()
	}
	if h.snap == nil {
		h.snap = h.Snapshot()
		for _, sh := range h.shards {
			sh.mu.Lock()
			clear(sh.dirtyObjs)
			clear(sh.dirtyPersist)
			clear(sh.dirtyAppRoots)
			sh.mu.Unlock()
		}
		return h.snap
	}
	h.eachShardConcurrent(func(i int) {
		h.patchShard(h.shards[i], h.snap.shards[i])
	})
	h.snap.next.Store(h.next.Load())
	return h.snap
}

// patchShard brings one shadow shard up to date from the live shard's dirty
// set, leaving it exactly what Snapshot would copy. It locks the live
// shard; the shadow shard is owned exclusively by the snapshot lineage (the
// site's trace mutex).
func (h *Heap) patchShard(live, snap *shard) {
	live.mu.Lock()
	defer live.mu.Unlock()
	for obj := range live.dirtyObjs {
		_, local := h.Locate(obj)
		ls, ss := live.get(local), snap.get(local)
		switch {
		case ls == nil:
			snap.remove(local)
		case ss == nil || ss.size != ls.size || !slices.Equal(ss.fields, ls.fields):
			snap.put(local, slices.Clone(ls.fields), ls.size)
		}
	}
	for obj := range live.dirtyPersist {
		if _, ok := live.persistentRoots[obj]; ok {
			snap.persistentRoots[obj] = struct{}{}
		} else {
			delete(snap.persistentRoots, obj)
		}
	}
	for r := range live.dirtyAppRoots {
		if n := live.appRoots[r]; n > 0 {
			snap.appRoots[r] = n
		} else {
			delete(snap.appRoots, r)
		}
	}
	clear(live.dirtyObjs)
	clear(live.dirtyPersist)
	clear(live.dirtyAppRoots)
}

// ResetTraceSnapshot discards the shadow copy so the next TraceSnapshot is
// a fresh deep copy. Used when a trace built on the snapshot lineage was
// abandoned (the dirty sets it consumed are gone) and after wholesale state
// replacement.
func (h *Heap) ResetTraceSnapshot() {
	h.snap = nil
	if h.tracking {
		for _, sh := range h.shards {
			sh.mu.Lock()
			clear(sh.dirtyObjs)
			clear(sh.dirtyPersist)
			clear(sh.dirtyAppRoots)
			sh.mu.Unlock()
		}
	}
}

// MaxShardDirtyRatio returns the largest per-shard ratio of dirty entities
// to shard objects since the last TraceSnapshot (0 when tracking is off or
// the heap is empty). Sites export it as the
// localtrace.parallel.shard_dirty_ratio gauge: a ratio near 1 on one shard
// while others idle shows mutation skew that per-shard snapshot patching
// absorbs and a global deep copy would not.
func (h *Heap) MaxShardDirtyRatio() float64 {
	if !h.tracking {
		return 0
	}
	max := 0.0
	for _, sh := range h.shards {
		sh.mu.RLock()
		dirty := len(sh.dirtyObjs) + len(sh.dirtyPersist) + len(sh.dirtyAppRoots)
		n := sh.count
		sh.mu.RUnlock()
		if n == 0 {
			n = 1
		}
		if r := float64(dirty) / float64(n); r > max {
			max = r
		}
	}
	return max
}

// NextID returns the allocation high-water mark (for checkpointing).
func (h *Heap) NextID() ids.ObjID { return ids.ObjID(h.next.Load()) }

// SetNextID raises the allocation high-water mark (checkpoint recovery);
// it never lowers it.
func (h *Heap) SetNextID(n ids.ObjID) {
	for {
		cur := h.next.Load()
		if uint64(n) <= cur || h.next.CompareAndSwap(cur, uint64(n)) {
			return
		}
	}
}

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
	sh := h.shards[h.ShardOf(r.Obj)]
	sh.mu.Lock()
	sh.appRoots[r]++
	h.touchAppRoot(sh, r)
	sh.mu.Unlock()
}

// RemoveAppRoot releases one mutator-variable hold on the reference. It
// reports whether a hold existed.
func (h *Heap) RemoveAppRoot(r ids.Ref) bool {
	sh := h.shards[h.ShardOf(r.Obj)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n, ok := sh.appRoots[r]
	if !ok {
		return false
	}
	if n <= 1 {
		delete(sh.appRoots, r)
	} else {
		sh.appRoots[r] = n - 1
	}
	h.touchAppRoot(sh, r)
	return true
}

// AppRoots returns the distinct references held by mutator variables, in
// ascending order.
func (h *Heap) AppRoots() []ids.Ref {
	var out []ids.Ref
	for _, sh := range h.shards {
		sh.mu.RLock()
		for r := range sh.appRoots {
			out = append(out, r)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// HoldsAppRoot reports whether any mutator variable holds the reference.
func (h *Heap) HoldsAppRoot(r ids.Ref) bool {
	sh := h.shards[h.ShardOf(r.Obj)]
	sh.mu.RLock()
	n := sh.appRoots[r]
	sh.mu.RUnlock()
	return n > 0
}
