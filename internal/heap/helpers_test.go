package heap

import (
	"sort"

	"backtrace/internal/ids"
)

// Helpers the heap tests read root status and check graph properties with.

// Objects returns all object identifiers in ascending order. Like
// EachObject, it requires that nothing mutates the heap meanwhile.
func (h *Heap) Objects() []ids.ObjID {
	var out []ids.ObjID
	h.EachObject(func(id ids.ObjID, _ []ids.Ref, _ int, _ bool) { out = append(out, id) })
	return out
}

// IsPersistentRoot reports whether a local object is a persistent root.
func (h *Heap) IsPersistentRoot(obj ids.ObjID) bool {
	_, ok := h.persistentRoots[obj]
	return ok
}

// LocalReachable computes the set of local objects reachable from the given
// starting references by following only local references (remote fields are
// not followed). Starting references owned by other sites are ignored.
func (h *Heap) LocalReachable(starts []ids.Ref) map[ids.ObjID]struct{} {
	seen := make(map[ids.ObjID]struct{})
	var stack []ids.ObjID
	push := func(r ids.Ref) {
		if r.Site != h.site || slotOf(h, r.Obj) == nil {
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
		for _, f := range slotOf(h, obj).fields {
			push(f)
		}
	}
	return seen
}

// RemoteRefsFrom returns, in ascending order, the distinct remote references
// held in the fields of the given set of local objects.
func (h *Heap) RemoteRefsFrom(objs map[ids.ObjID]struct{}) []ids.Ref {
	set := make(map[ids.Ref]struct{})
	for obj := range objs {
		s := slotOf(h, obj)
		if s == nil {
			continue
		}
		for _, f := range s.fields {
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
