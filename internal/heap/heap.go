// Package heap implements a site's local object store: objects with
// reference fields, persistent roots, and application roots (the mutator's
// local variables, Section 2 and Section 6.3 of the paper).
//
// The store is split into N shards keyed by object-identifier hash. Each
// shard owns its own lock, its own maps, its own write-barrier dirty set,
// and its own slice of the copy-on-write trace snapshot, so mutator
// operations touching distinct shards do not contend and trace snapshots
// patch shards concurrently. Single-key operations are safe for concurrent
// use; whole-heap operations (Snapshot, TraceSnapshot, Objects, audits)
// still rely on the owning Site to exclude concurrent mutators — the Site
// takes its write lock for those, and its read lock plus the per-shard
// locks for the short mutator critical sections the paper's model assumes.
package heap

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"backtrace/internal/ids"
)

// Object is one object in a site's store: an identifier, reference fields,
// and a nominal payload size in bytes (used only for accounting, e.g. the
// bytes moved by the migration baseline).
type Object struct {
	id     ids.ObjID
	fields []ids.Ref
	size   int
}

// ID returns the object's identifier within its owning site.
func (o *Object) ID() ids.ObjID { return o.id }

// Size returns the object's nominal payload size in bytes.
func (o *Object) Size() int { return o.size }

// Fields returns a copy of the object's reference fields. It is safe only
// when field mutators are excluded (snapshot heaps, or the site write
// lock); concurrent introspection should use Heap.FieldsOf.
func (o *Object) Fields() []ids.Ref {
	out := make([]ids.Ref, len(o.fields))
	copy(out, o.fields)
	return out
}

// clone returns a copy of the object that shares no field storage with it.
func (o *Object) clone() *Object {
	return &Object{id: o.id, fields: slices.Clone(o.fields), size: o.size}
}

// NumFields returns the number of reference fields.
func (o *Object) NumFields() int { return len(o.fields) }

// Field returns the i'th reference field.
func (o *Object) Field(i int) ids.Ref { return o.fields[i] }

// DefaultObjectSize is the nominal payload size of objects allocated
// without an explicit size.
const DefaultObjectSize = 64

// shard is one hash partition of the store. The mutex guards every map in
// the shard; the dirty sets exist only while delta tracking is enabled.
type shard struct {
	mu      sync.RWMutex
	objects map[ids.ObjID]*Object

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
		objects:         make(map[ids.ObjID]*Object),
		persistentRoots: make(map[ids.ObjID]struct{}),
		appRoots:        make(map[ids.Ref]int),
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
	// default: the bookkeeping is pure overhead for sites that run full
	// traces. Written only while whole-heap exclusion holds (construction
	// or the site write lock).
	tracking bool
	// snap is the shadow copy maintained by TraceSnapshot: a second Heap
	// (same shard count) that mirrors this one as of the last snapshot.
	// It shares no Object structs with the live heap, so a local trace
	// may read it off-lock while mutators keep writing here.
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

func (h *Heap) shardFor(obj ids.ObjID) *shard { return h.shards[h.ShardOf(obj)] }

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
		n += len(sh.objects)
		sh.mu.RUnlock()
	}
	return n
}

// Alloc creates a new object with no fields and DefaultObjectSize payload,
// returning its fully qualified reference.
func (h *Heap) Alloc() ids.Ref { return h.AllocSized(DefaultObjectSize) }

// AllocSized creates a new object with the given nominal payload size.
func (h *Heap) AllocSized(size int) ids.Ref {
	id := ids.ObjID(h.next.Add(1))
	o := &Object{id: id, size: size}
	sh := h.shardFor(id)
	sh.mu.Lock()
	sh.objects[id] = o
	h.touchObj(sh, id)
	sh.mu.Unlock()
	return ids.MakeRef(h.site, id)
}

// AllocRoot creates a new object and marks it a persistent root.
func (h *Heap) AllocRoot() ids.Ref {
	id := ids.ObjID(h.next.Add(1))
	o := &Object{id: id, size: DefaultObjectSize}
	sh := h.shardFor(id)
	sh.mu.Lock()
	sh.objects[id] = o
	sh.persistentRoots[id] = struct{}{}
	h.touchObj(sh, id)
	h.touchPersist(sh, id)
	sh.mu.Unlock()
	return ids.MakeRef(h.site, id)
}

// MarkPersistentRoot designates an existing local object as a persistent
// root (an entry point into the store, such as a name server or directory).
func (h *Heap) MarkPersistentRoot(obj ids.ObjID) error {
	sh := h.shardFor(obj)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.objects[obj]; !ok {
		return fmt.Errorf("heap %v: mark root: no object %v", h.site, obj)
	}
	sh.persistentRoots[obj] = struct{}{}
	h.touchPersist(sh, obj)
	return nil
}

// UnmarkPersistentRoot removes root status from a local object.
func (h *Heap) UnmarkPersistentRoot(obj ids.ObjID) {
	sh := h.shardFor(obj)
	sh.mu.Lock()
	delete(sh.persistentRoots, obj)
	h.touchPersist(sh, obj)
	sh.mu.Unlock()
}

// IsPersistentRoot reports whether a local object is a persistent root.
func (h *Heap) IsPersistentRoot(obj ids.ObjID) bool {
	sh := h.shardFor(obj)
	sh.mu.RLock()
	_, ok := sh.persistentRoots[obj]
	sh.mu.RUnlock()
	return ok
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
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Get returns the object with the given identifier. The returned Object's
// fields must only be read when field mutators are excluded (snapshot
// heaps, or the site write lock); use FieldsOf for concurrent
// introspection.
func (h *Heap) Get(obj ids.ObjID) (*Object, bool) {
	sh := h.shardFor(obj)
	sh.mu.RLock()
	o, ok := sh.objects[obj]
	sh.mu.RUnlock()
	return o, ok
}

// FieldsOf returns a copy of an object's reference fields, taken under the
// shard lock so it is safe against concurrent field mutation.
func (h *Heap) FieldsOf(obj ids.ObjID) ([]ids.Ref, bool) {
	sh := h.shardFor(obj)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	o, ok := sh.objects[obj]
	if !ok {
		return nil, false
	}
	return o.Fields(), true
}

// Contains reports whether the heap holds the object.
func (h *Heap) Contains(obj ids.ObjID) bool {
	sh := h.shardFor(obj)
	sh.mu.RLock()
	_, ok := sh.objects[obj]
	sh.mu.RUnlock()
	return ok
}

// Objects returns all object identifiers in ascending order.
func (h *Heap) Objects() []ids.ObjID {
	out := make([]ids.ObjID, 0, h.Len())
	for _, sh := range h.shards {
		sh.mu.RLock()
		for o := range sh.objects {
			out = append(out, o)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EachObjectInShard invokes fn for every object in one shard, in
// unspecified order, holding the shard read lock. The parallel tracer uses
// it to partition heap scans without allocating id slices; fn must not
// mutate the heap.
func (h *Heap) EachObjectInShard(i int, fn func(ids.ObjID, *Object)) {
	sh := h.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for id, o := range sh.objects {
		fn(id, o)
	}
}

// AddField appends a reference field to a local object (reference
// creation: "copying a reference z into object y", Section 6.1).
func (h *Heap) AddField(obj ids.ObjID, target ids.Ref) error {
	sh := h.shardFor(obj)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	o, ok := sh.objects[obj]
	if !ok {
		return fmt.Errorf("heap %v: add field: no object %v", h.site, obj)
	}
	o.fields = append(o.fields, target)
	h.touchObj(sh, obj)
	return nil
}

// RemoveField deletes the first field of obj equal to target (reference
// deletion). It reports whether a field was removed.
func (h *Heap) RemoveField(obj ids.ObjID, target ids.Ref) (bool, error) {
	sh := h.shardFor(obj)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	o, ok := sh.objects[obj]
	if !ok {
		return false, fmt.Errorf("heap %v: remove field: no object %v", h.site, obj)
	}
	for i, f := range o.fields {
		if f == target {
			o.fields = append(o.fields[:i], o.fields[i+1:]...)
			h.touchObj(sh, obj)
			return true, nil
		}
	}
	return false, nil
}

// ClearFields removes every reference field of obj.
func (h *Heap) ClearFields(obj ids.ObjID) error {
	sh := h.shardFor(obj)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	o, ok := sh.objects[obj]
	if !ok {
		return fmt.Errorf("heap %v: clear fields: no object %v", h.site, obj)
	}
	o.fields = nil
	h.touchObj(sh, obj)
	return nil
}

// Delete removes an object from the heap (called by the collector when the
// object is garbage, and by the migration baseline after moving it).
func (h *Heap) Delete(obj ids.ObjID) {
	sh := h.shardFor(obj)
	sh.mu.Lock()
	delete(sh.objects, obj)
	delete(sh.persistentRoots, obj)
	h.touchObj(sh, obj)
	h.touchPersist(sh, obj)
	sh.mu.Unlock()
}

// Install recreates an object under a specific identifier (checkpoint
// recovery). It fails if the identifier is already in use.
func (h *Heap) Install(id ids.ObjID, fields []ids.Ref, size int, root bool) error {
	if id == ids.NoObj {
		return fmt.Errorf("heap %v: install: zero object id", h.site)
	}
	sh := h.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.objects[id]; ok {
		return fmt.Errorf("heap %v: install: object %v already exists", h.site, id)
	}
	o := &Object{id: id, size: size}
	o.fields = make([]ids.Ref, len(fields))
	copy(o.fields, fields)
	sh.objects[id] = o
	h.touchObj(sh, id)
	if root {
		sh.persistentRoots[id] = struct{}{}
		h.touchPersist(sh, id)
	}
	h.SetNextID(id)
	return nil
}

// Snapshot returns a deep copy of the heap: objects (with copied field
// slices), persistent roots, application roots, and the allocation
// high-water mark. Shards are copied concurrently, each under its own read
// lock. The copy shares nothing with the original, so a local trace can
// read it while mutators keep modifying the live heap. Sites reach it only
// through TraceSnapshot, whose first cut it is; tests also use it as an
// independent copy to run their reference trace on.
func (h *Heap) Snapshot() *Heap {
	cp := NewSharded(h.site, len(h.shards))
	cp.next.Store(h.next.Load())
	h.eachShardConcurrent(func(i int) {
		src, dst := h.shards[i], cp.shards[i]
		src.mu.RLock()
		defer src.mu.RUnlock()
		dst.objects = make(map[ids.ObjID]*Object, len(src.objects))
		for id, o := range src.objects {
			dst.objects[id] = o.clone()
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
// The returned heap is the shadow copy itself: it shares no Object structs
// with the live heap (an off-lock trace may read it while mutators write
// here), but it is patched in place by the NEXT TraceSnapshot call — the
// caller must be done with it by then. The site's trace mutex provides
// exactly that serialization.
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
		liveO, liveOK := live.objects[obj]
		snapO, snapOK := snap.objects[obj]
		switch {
		case !liveOK:
			delete(snap.objects, obj)
		case !snapOK || !slices.Equal(snapO.fields, liveO.fields):
			snap.objects[obj] = liveO.clone()
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
		n := len(sh.objects)
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
	id := ids.ObjID(h.next.Add(1))
	o := &Object{id: id, size: size}
	o.fields = make([]ids.Ref, len(fields))
	copy(o.fields, fields)
	sh := h.shardFor(id)
	sh.mu.Lock()
	sh.objects[id] = o
	h.touchObj(sh, id)
	sh.mu.Unlock()
	return ids.MakeRef(h.site, id)
}

// --- application roots --------------------------------------------------

// AddAppRoot records that a mutator variable on this site holds the given
// reference (local or remote). Multiple holds are counted.
func (h *Heap) AddAppRoot(r ids.Ref) {
	sh := h.shardFor(r.Obj)
	sh.mu.Lock()
	sh.appRoots[r]++
	h.touchAppRoot(sh, r)
	sh.mu.Unlock()
}

// RemoveAppRoot releases one mutator-variable hold on the reference. It
// reports whether a hold existed.
func (h *Heap) RemoveAppRoot(r ids.Ref) bool {
	sh := h.shardFor(r.Obj)
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
	sh := h.shardFor(r.Obj)
	sh.mu.RLock()
	n := sh.appRoots[r]
	sh.mu.RUnlock()
	return n > 0
}

// --- reachability helpers (used by local tracing and by tests) ----------

// lockAllRead takes every shard's read lock in index order; the returned
// function releases them.
func (h *Heap) lockAllRead() func() {
	for _, sh := range h.shards {
		sh.mu.RLock()
	}
	return func() {
		for _, sh := range h.shards {
			sh.mu.RUnlock()
		}
	}
}

// LocalReachable computes the set of local objects reachable from the given
// starting references by following only local references (remote fields are
// not followed). Starting references owned by other sites are ignored.
func (h *Heap) LocalReachable(starts []ids.Ref) map[ids.ObjID]struct{} {
	defer h.lockAllRead()()
	seen := make(map[ids.ObjID]struct{})
	var stack []ids.ObjID
	push := func(r ids.Ref) {
		if r.Site != h.site {
			return
		}
		if _, ok := h.shardFor(r.Obj).objects[r.Obj]; !ok {
			return
		}
		if _, ok := seen[r.Obj]; ok {
			return
		}
		seen[r.Obj] = struct{}{}
		stack = append(stack, r.Obj)
	}
	for _, s := range starts {
		push(s)
	}
	for len(stack) > 0 {
		obj := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range h.shardFor(obj).objects[obj].fields {
			push(f)
		}
	}
	return seen
}

// RemoteRefsFrom returns, in ascending order, the distinct remote references
// held in the fields of the given set of local objects.
func (h *Heap) RemoteRefsFrom(objs map[ids.ObjID]struct{}) []ids.Ref {
	defer h.lockAllRead()()
	set := make(map[ids.Ref]struct{})
	for obj := range objs {
		o, ok := h.shardFor(obj).objects[obj]
		if !ok {
			continue
		}
		for _, f := range o.fields {
			if f.Site != h.site && !f.IsZero() {
				set[f] = struct{}{}
			}
		}
	}
	out := make([]ids.Ref, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
