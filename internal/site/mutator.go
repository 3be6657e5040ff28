package site

import (
	"fmt"

	"backtrace/internal/ids"
	"backtrace/internal/msg"
)

// This file is the mutator API (Section 2): applications create objects,
// insert and delete references, hold references in variables (application
// roots), and pass references between sites. Every operation that moves a
// reference across sites goes through the transfer and insert barriers of
// Section 6.1.
//
// Every mutator operation is one short critical section under the site
// write lock, the only lock on the heap and the ioref tables, so each
// mutator step is atomic with respect to the collector's steps on this
// site, as the paper's model assumes.

// NewObject allocates an object on this site and returns its reference.
func (s *Site) NewObject() ids.Ref {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.heap.Alloc()
}

// NewRootObject allocates an object and designates it a persistent root
// (an entry point into the store, such as a directory).
func (s *Site) NewRootObject() ids.Ref {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.heap.AllocRoot()
}

// NewHeldObject allocates an object and registers a mutator-variable hold
// on it in the same critical section, so no trace snapshot can observe the
// object unrooted. Mutators that keep the returned reference in a variable
// (rather than immediately linking it) must use this instead of NewObject:
// the Section 2 model requires every reference a mutator can still use to
// be visible to the collector as a root. The hold is released with
// DropAppRoot.
func (s *Site) NewHeldObject() ids.Ref {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.heap.Alloc()
	s.heap.AddAppRoot(r)
	return r
}

// AddAppRoot records that a mutator variable on this site holds the given
// reference. References received from other sites (SendRef, Traverse) are
// registered automatically; use this for references obtained by reading
// local objects.
func (s *Site) AddAppRoot(r ids.Ref) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.heap.AddAppRoot(r)
}

// DropAppRoot releases one mutator-variable hold on the reference.
func (s *Site) DropAppRoot(r ids.Ref) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.heap.RemoveAppRoot(r)
}

// AddReference copies a reference into a local object — the paper's local
// copy (Section 6.1.1). The container must be a local object. If the
// target is remote, an outref must already exist or the target must be
// held by a mutator variable; in a well-typed mutator this always holds,
// because the only ways to obtain a remote reference are reading a local
// field (outref exists) or receiving it from another site (SendRef
// registered it).
//
// The paper's safety argument assumes the mutator obtained the reference
// by traversing a path to it, which fired the transfer barrier on the way
// in. Since this API cannot verify that discipline, it conservatively
// applies the barrier itself: a copy can create new paths to a suspect, so
// the suspect's iorefs are cleaned until the next local trace recomputes
// the back information. The cost is at most a deferred back trace; the
// benefit is that no caller can violate the local safety invariant.
func (s *Site) AddReference(container ids.ObjID, target ids.Ref) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.heap.Contains(container) {
		return fmt.Errorf("site %v: add reference: no object %v", s.cfg.ID, container)
	}
	if target.Site != s.cfg.ID {
		o, ok := s.table.Outref(target)
		if !ok {
			// The mutator conjured a remote reference this site never
			// received: a protocol violation in the caller.
			return fmt.Errorf("site %v: add reference: no outref for %v (reference was never transferred here)", s.cfg.ID, target)
		}
		if !o.IsClean(s.cfg.SuspicionThreshold) && s.cfg.Faults&FaultSkipTransferBarrier == 0 {
			s.cleanOutref(target)
		} else {
			// A trace computed before this copy cannot see the new field;
			// keep the outref through its commit (Section 6.2).
			s.notePendingBarrierOutref(target)
		}
	} else {
		if !s.heap.Contains(target.Obj) {
			return fmt.Errorf("site %v: add reference: target %v does not exist", s.cfg.ID, target)
		}
		s.applyTransferBarrierInref(target.Obj)
	}
	return s.heap.AddField(container, target)
}

// RemoveReference deletes one occurrence of target from a local object's
// fields (the paper ignores deletions for back-information safety; the
// next local trace reflects them).
func (s *Site) RemoveReference(container ids.ObjID, target ids.Ref) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.heap.RemoveField(container, target)
	return err
}

// Fields returns a copy of the reference fields of a local object. It
// only reads, so it shares the site read lock with other introspection.
func (s *Site) Fields(obj ids.ObjID) ([]ids.Ref, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.assertNoStrandedHold()
	fields, ok := s.heap.FieldsOf(obj)
	if !ok {
		return nil, fmt.Errorf("site %v: fields: no object %v", s.cfg.ID, obj)
	}
	return fields, nil
}

// MarkPersistentRoot promotes an existing local object to a persistent
// root; UnmarkPersistentRoot demotes it (turning everything reachable only
// from it into garbage).
func (s *Site) MarkPersistentRoot(obj ids.ObjID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.heap.MarkPersistentRoot(obj)
}

// UnmarkPersistentRoot removes the persistent-root designation.
func (s *Site) UnmarkPersistentRoot(obj ids.ObjID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.heap.UnmarkPersistentRoot(obj)
}

// SendRef passes a reference to another site, as the target, argument, or
// result of a remote call (Section 6.1.1). The receiving site registers
// the reference as a mutator variable (application root) and applies the
// transfer barrier.
//
// A reference to one of this site's own objects needs no insert protocol:
// the owner lists the receiver as a source of the object's inref now,
// applies the transfer barrier to it, and records the transfer until the
// receiver's receipt (a ReleasePin) arrives, ignoring meanwhile any Update
// the receiver built before the reference arrived that would drop it again
// (transfers.go). The inref stays barrier-clean until the receipt.
//
// A third party's reference needs the insert barrier (Section 6.1.2): this
// site pins its outref until the owner has recorded the new holder — the
// receiver runs the insert protocol if it had no outref — and the owner's
// confirmation arrives as a ReleasePin message.
func (s *Site) SendRef(to ids.SiteID, target ids.Ref) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sendRefLocked(to, target)
}

func (s *Site) sendRefLocked(to ids.SiteID, target ids.Ref) error {
	if target.IsZero() {
		return fmt.Errorf("site %v: send ref: zero reference", s.cfg.ID)
	}
	if target.Site == s.cfg.ID {
		if !s.heap.Contains(target.Obj) {
			return fmt.Errorf("site %v: send ref: no local object %v", s.cfg.ID, target.Obj)
		}
		if to == s.cfg.ID {
			// Degenerate self-send: the mutator just holds it again.
			s.heap.AddAppRoot(target)
			s.applyTransferBarrierInref(target.Obj)
			return nil
		}
		newSource := true
		if in, ok := s.table.Inref(target.Obj); ok {
			_, had := in.Sources[to]
			newSource = !had
		}
		s.table.AddSource(target.Obj, to)
		s.applyTransferBarrierInref(target.Obj)
		s.noteTransferLocked(to, target.Obj, newSource)
		s.send(to, msg.RefTransfer{Payload: target})
		return nil
	}
	if _, ok := s.table.Outref(target); !ok {
		return fmt.Errorf("site %v: send ref: no outref for %v", s.cfg.ID, target)
	}
	if to == s.cfg.ID {
		s.heap.AddAppRoot(target)
		return nil
	}
	s.table.Pin(target)
	s.send(to, msg.RefTransfer{Payload: target, Pinner: s.cfg.ID})
	return nil
}

// Traverse follows a remote reference: the mutator moves to the target's
// site, which registers the reference as an application root and applies
// the transfer barrier ("a mutator may traverse an inter-site reference by
// passing the reference in a message from the source site to the target
// site", Section 2). The caller typically continues operating on the
// target site afterwards.
func (s *Site) Traverse(target ids.Ref) error {
	if target.Site == s.cfg.ID {
		return fmt.Errorf("site %v: traverse: %v is local", s.cfg.ID, target)
	}
	return s.SendRef(target.Site, target)
}
