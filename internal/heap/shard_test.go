package heap

import (
	"reflect"
	"sort"
	"testing"

	"backtrace/internal/ids"
)

// TestShardOfPartition checks that every object lands in exactly the shard
// its ID hashes to and that per-shard iteration covers the heap without
// overlap.
func TestShardOfPartition(t *testing.T) {
	const shards = 4
	h := NewSharded(1, shards)
	var all []ids.ObjID
	for i := 0; i < 40; i++ {
		all = append(all, h.Alloc().Obj)
	}

	seen := make(map[ids.ObjID]int)
	total := 0
	for i := 0; i < shards; i++ {
		n := 0
		h.EachObjectInShard(i, func(obj ids.ObjID, local uint64) {
			if got := h.ShardOf(obj); got != i {
				t.Fatalf("object %v iterated in shard %d but ShardOf = %d", obj, i, got)
			}
			if gotShard, gotLocal := h.Locate(obj); gotShard != i || gotLocal != local {
				t.Fatalf("object %v iterated at (%d, %d) but Locate = (%d, %d)", obj, i, local, gotShard, gotLocal)
			}
			seen[obj]++
			n++
		})
		if n == 0 {
			t.Fatalf("shard %d empty: 40 sequential IDs should hit all %d shards", i, shards)
		}
		total += n
	}
	if total != len(all) {
		t.Fatalf("per-shard iteration visited %d objects, heap has %d", total, len(all))
	}
	for _, obj := range all {
		if seen[obj] != 1 {
			t.Fatalf("object %v visited %d times", obj, seen[obj])
		}
	}
	if h.Len() != len(all) {
		t.Fatalf("Len = %d, want %d", h.Len(), len(all))
	}
}

// TestShardedObjectsSorted checks the cross-shard Objects() view stays
// globally sorted even though hash sharding interleaves IDs.
func TestShardedObjectsSorted(t *testing.T) {
	h := NewSharded(1, 3)
	for i := 0; i < 25; i++ {
		h.Alloc()
	}
	h.Delete(7)
	h.Delete(12)
	objs := h.Objects()
	if !sort.SliceIsSorted(objs, func(i, j int) bool { return objs[i] < objs[j] }) {
		t.Fatalf("Objects() not sorted: %v", objs)
	}
	if len(objs) != 23 {
		t.Fatalf("Objects() has %d entries, want 23", len(objs))
	}
}

// TestFieldsOfMatchesGet checks the single-lock FieldsOf fast path returns
// the same view as the lock-free SlotFields, as a copy.
func TestFieldsOfMatchesGet(t *testing.T) {
	h := NewSharded(1, 4)
	a := h.AllocRoot()
	b := h.Alloc()
	if err := h.AddField(a.Obj, b); err != nil {
		t.Fatal(err)
	}
	if err := h.AddField(a.Obj, ids.Ref{Site: 2, Obj: 9}); err != nil {
		t.Fatal(err)
	}
	got, ok := h.FieldsOf(a.Obj)
	if !ok {
		t.Fatal("FieldsOf reported object missing")
	}
	want, _ := h.SlotFields(h.Locate(a.Obj))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FieldsOf = %v, SlotFields = %v", got, want)
	}
	if &got[0] == &want[0] {
		t.Fatal("FieldsOf returned the heap's own array")
	}
	if _, ok := h.FieldsOf(999); ok {
		t.Fatal("FieldsOf found a nonexistent object")
	}
}

// TestShardedSnapshotEquivalence checks that the concurrent per-shard deep
// copy and the incremental per-shard patching both reproduce exactly the
// state a single-shard heap would capture.
func TestShardedSnapshotEquivalence(t *testing.T) {
	build := func(shards int) *Heap {
		h := NewSharded(1, shards)
		root := h.AllocRoot()
		var prev ids.Ref
		for i := 0; i < 30; i++ {
			o := h.Alloc()
			if i%3 == 0 {
				_ = h.AddField(root.Obj, o)
			} else if !prev.IsZero() {
				_ = h.AddField(prev.Obj, o)
			}
			prev = o
		}
		h.AddAppRoot(ids.Ref{Site: 2, Obj: 5})
		return h
	}
	flat, sharded := build(1), build(4)

	flatSnap, shardSnap := flat.Snapshot(), sharded.Snapshot()
	if !reflect.DeepEqual(flatSnap.Objects(), shardSnap.Objects()) {
		t.Fatalf("snapshot object sets differ: %v vs %v", flatSnap.Objects(), shardSnap.Objects())
	}
	for _, obj := range flatSnap.Objects() {
		fw, _ := flatSnap.FieldsOf(obj)
		gw, ok := shardSnap.FieldsOf(obj)
		if !ok || !reflect.DeepEqual(fw, gw) {
			t.Fatalf("snapshot fields differ for %v: %v vs %v (ok=%v)", obj, fw, gw, ok)
		}
	}
	if !reflect.DeepEqual(flatSnap.AppRoots(), shardSnap.AppRoots()) {
		t.Fatalf("snapshot app roots differ")
	}

	// Patch only dirty shards and compare against a fresh copy.
	sharded.EnableDeltaTracking()
	sharded.TraceSnapshot()
	mutated := sharded.Alloc()
	_ = h2AddField(t, sharded, 1, mutated)
	sharded.Delete(9)
	snap2 := sharded.TraceSnapshot()
	if !snap2.Contains(mutated.Obj) || snap2.Contains(9) {
		t.Fatalf("patched snapshot missed the allocation or the deletion")
	}
	full := sharded.Snapshot()
	if !reflect.DeepEqual(full.Objects(), snap2.Objects()) {
		t.Fatalf("patched snapshot object set %v, want %v", snap2.Objects(), full.Objects())
	}
}

func h2AddField(t *testing.T, h *Heap, obj ids.ObjID, target ids.Ref) error {
	t.Helper()
	if err := h.AddField(obj, target); err != nil {
		t.Fatal(err)
	}
	return nil
}

// TestMaxShardDirtyRatio checks the skew gauge: clean after a snapshot,
// nonzero after a mutation, and reflecting the dirtiest shard only.
func TestMaxShardDirtyRatio(t *testing.T) {
	h := NewSharded(1, 4)
	if got := h.MaxShardDirtyRatio(); got != 0 {
		t.Fatalf("ratio %v with tracking off, want 0", got)
	}
	h.EnableDeltaTracking()
	for i := 0; i < 16; i++ {
		h.Alloc()
	}
	h.TraceSnapshot()
	if got := h.MaxShardDirtyRatio(); got != 0 {
		t.Fatalf("ratio %v right after snapshot, want 0", got)
	}
	// Dirty one object: exactly one shard has 1 dirty of 4 objects.
	if err := h.AddField(4, ids.Ref{Site: 2, Obj: 1}); err != nil {
		t.Fatal(err)
	}
	if got := h.MaxShardDirtyRatio(); got != 0.25 {
		t.Fatalf("ratio %v after one mutation, want 0.25", got)
	}
}
