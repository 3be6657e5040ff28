package tracer

import "backtrace/internal/ids"

// MarkSet is the marked-object table of one local trace, partitioned by the
// same object-id hash as the heap it was traced from: entry for object o
// lives in shard o mod NumShards. The partitioning lets the parallel tracer
// materialize shards concurrently and lets the parallel remark guard each
// shard with its own lock, while reflect.DeepEqual still compares two
// MarkSets by content — the equivalence property tests depend on that, so
// the struct holds no locks or counters of its own.
//
// MarkSet itself is not synchronized: concurrent writers must either work
// on distinct shards or serialize per shard externally.
type MarkSet struct {
	shards []map[ids.ObjID]int
}

// NewMarkSet creates an empty mark set with the given shard count (clamped
// to at least 1). Traces use the heap's shard count so marks and objects
// partition identically.
func NewMarkSet(shards int) *MarkSet {
	if shards < 1 {
		shards = 1
	}
	ms := &MarkSet{shards: make([]map[ids.ObjID]int, shards)}
	for i := range ms.shards {
		ms.shards[i] = make(map[ids.ObjID]int)
	}
	return ms
}

// NumShards returns the shard count.
func (m *MarkSet) NumShards() int { return len(m.shards) }

// ShardOf returns the shard index owning an object id; it matches
// heap.ShardOf for a heap of the same shard count.
func (m *MarkSet) ShardOf(obj ids.ObjID) int {
	return int(uint64(obj) % uint64(len(m.shards)))
}

// Shard returns the raw map of one shard. Callers writing to it must only
// insert objects the shard owns, and must respect the synchronization
// contract above.
func (m *MarkSet) Shard(i int) map[ids.ObjID]int { return m.shards[i] }

// Get returns the mark distance of an object and whether it is marked.
func (m *MarkSet) Get(obj ids.ObjID) (int, bool) {
	d, ok := m.shards[m.ShardOf(obj)][obj]
	return d, ok
}

// Set records an object's mark distance.
func (m *MarkSet) Set(obj ids.ObjID, d int) {
	m.shards[m.ShardOf(obj)][obj] = d
}

// Len returns the number of marked objects.
func (m *MarkSet) Len() int {
	n := 0
	for _, sh := range m.shards {
		n += len(sh)
	}
	return n
}
