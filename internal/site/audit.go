package site

import (
	"backtrace/internal/ids"
)

// Audit is a consistent snapshot of one site's collector-relevant state,
// used by the cluster's omniscient safety/completeness auditor and the
// cross-site invariant checker. It is a deep copy; mutating it does not
// affect the site.
type Audit struct {
	// Objects maps every object to a copy of its reference fields.
	Objects map[ids.ObjID][]ids.Ref
	// PersistentRoots and AppRoots are the site's roots.
	PersistentRoots []ids.ObjID
	AppRoots        []ids.Ref
	// Outrefs is the set of outref targets.
	Outrefs map[ids.Ref]struct{}
	// InrefSources maps each inref to its source sites.
	InrefSources map[ids.ObjID][]ids.SiteID
	// GarbageFlagged lists local objects whose inref carries the garbage
	// flag (a Garbage back-trace verdict awaiting the sweep). The safety
	// oracle cross-checks these against global reachability: a flagged
	// object that is globally live is a safety violation.
	GarbageFlagged []ids.ObjID
}

// AuditSnapshot captures the site's state under the write lock, a
// consistent cut of the heap and the ioref tables together.
func (s *Site) AuditSnapshot() Audit {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.assertNoStrandedHold()
	a := Audit{
		Objects:         make(map[ids.ObjID][]ids.Ref, s.heap.Len()),
		PersistentRoots: s.heap.PersistentRoots(),
		AppRoots:        s.heap.AppRoots(),
		Outrefs:         make(map[ids.Ref]struct{}, s.table.NumOutrefs()),
		InrefSources:    make(map[ids.ObjID][]ids.SiteID, s.table.NumInrefs()),
	}
	s.heap.EachObject(func(obj ids.ObjID, fields []ids.Ref, _ int, _ bool) {
		a.Objects[obj] = append(make([]ids.Ref, 0, len(fields)), fields...)
	})
	for _, o := range s.table.Outrefs() {
		a.Outrefs[o.Target] = struct{}{}
	}
	for _, in := range s.table.Inrefs() {
		a.InrefSources[in.Obj] = in.SourceSites()
		if in.Garbage {
			a.GarbageFlagged = append(a.GarbageFlagged, in.Obj)
		}
	}
	return a
}
