package site

import (
	"backtrace/internal/ids"
	"backtrace/internal/msg"
	"backtrace/internal/obs"
)

// This file implements the Section 6.1 machinery: the transfer barrier
// (6.1.1), the remote-copy cases and insert barrier (6.1.2), and the clean
// rule notifications (6.4) they entail. All handlers run with the site
// lock held.

// handleRefTransfer processes an inbound reference transfer: the sending
// site's mutator passed Payload to this site (remote copy or traversal).
func (s *Site) handleRefTransfer(from ids.SiteID, m msg.RefTransfer) {
	z := m.Payload
	// The mutator on this site now holds the reference in a variable
	// (application root) until it explicitly drops it; this is what makes
	// the non-atomic mutator of Section 6.3 safe.
	s.heap.AddAppRoot(z)

	if z.Site == s.cfg.ID {
		// Case 1: the object is local. The transfer barrier applies to
		// its inref, and the sender's retention can be released — the
		// owner (this site) has the transfer.
		s.applyTransferBarrierInref(z.Obj)
		s.sendReleasePin(m.Pinner, z)
		return
	}

	// An owner-sent transfer needs no insert: the owner listed this site as
	// a source when it sent. This site returns a receipt (a ReleasePin for
	// the owner's object) in place of the pin release a third party's
	// transfer gets — unless the owner has restarted since it sent, whose
	// new incarnation did not record the transfer (PeerRestarted).
	ownerSent := z.Site == from
	release := m.Pinner
	if ownerSent && s.restarting[from] == 0 {
		release = from
	}

	if o, ok := s.table.Outref(z); ok {
		// Cases 2 and 3: an outref exists. If it is suspected, clean it.
		if !o.IsClean(s.cfg.SuspicionThreshold) && s.cfg.Faults&FaultSkipTransferBarrier == 0 {
			s.cleanOutref(z)
		}
		s.sendReleasePin(release, z)
		return
	}
	if ownerSent {
		// Case 4 from the owner: a clean outref, and the receipt.
		s.table.EnsureOutref(z)
		s.notePendingBarrierOutref(z)
		s.sendReleasePin(release, z)
		return
	}

	// Case 4 from a third party: no outref. Create a clean one and run the
	// insert protocol; the sender stays pinned until the owner records us.
	// The insert is remembered and retransmitted at each local trace until
	// the owner acknowledges it (loss healing, Section 4.6 spirit).
	s.table.EnsureOutref(z)
	s.notePendingBarrierOutref(z)
	ins := msg.Insert{Target: z, Holder: s.cfg.ID, Pinner: m.Pinner}
	s.pendingInserts[z] = ins
	s.send(z.Site, ins)
}

// handleInsert processes an insert message at the owner: record the new
// holder in the inref's source list, apply the transfer barrier to the
// inref (Section 6.1.2, case 4), acknowledge the holder, and release the
// original sender's pin.
//
// The pin is released only when the insert actually adds a new source.
// Inserts are retransmitted at every local trace until acknowledged, so
// the owner can legitimately see the same insert twice; the pin is a
// counted retention, and a second release would not be absorbed — it
// would eat into an unrelated hold on the same reference, such as the
// sending mutator's own variable. (Found by the simulation model checker:
// two commits at the holder before the owner drained its link queued a
// retransmit behind the original, the double release destroyed the
// allocating agent's app root, and the owner collected a live object.)
// FIFO links make the source test sound: any Removal that could revive
// "newness" for a later insert of the same holder is ordered after the
// retransmits that precede it. The one listing that does not come down the
// holder's link is the owner's own: an owner-sent transfer lists the holder
// at send time, and if the holder applied a third party's transfer of the
// same reference first, its Insert finds itself listed. takeFreshLocked
// tells that first Insert apart from a retransmit.
func (s *Site) handleInsert(from ids.SiteID, m msg.Insert) {
	if m.Target.Site != s.cfg.ID {
		return // misrouted
	}
	if !s.heap.Contains(m.Target.Obj) {
		// The object is gone: the reference was to garbage already
		// collected (possible only if the sender's retention lapsed,
		// e.g. after message loss). Nothing to record, but still
		// acknowledge so the holder stops retransmitting — each
		// retransmit would otherwise trigger another release below.
		s.send(m.Holder, msg.InsertAck{Target: m.Target})
		s.sendReleasePin(m.Pinner, m.Target)
		return
	}
	isNewSource := true
	if in, ok := s.table.Inref(m.Target.Obj); ok {
		_, had := in.Sources[m.Holder]
		isNewSource = !had
	}
	if s.takeFreshLocked(m.Holder, m.Target.Obj) {
		isNewSource = true
	}
	s.table.AddSource(m.Target.Obj, m.Holder)
	s.applyTransferBarrierInref(m.Target.Obj)
	s.send(m.Holder, msg.InsertAck{Target: m.Target})
	if isNewSource {
		s.sendReleasePin(m.Pinner, m.Target)
	}
}

// handleReleasePin releases the retention this site took when it sent the
// reference. For a third party's transfer that is the insert-barrier pin on
// its outref (Section 6.1.2), released by the owner once the insert is
// recorded. For the owner's own object it is the owner's record of the
// transfer, released by the receiver once it applied it.
func (s *Site) handleReleasePin(from ids.SiteID, m msg.ReleasePin) {
	if m.Target.Site == s.cfg.ID {
		s.receiptLocked(from, m.Target.Obj)
		return
	}
	s.table.Unpin(m.Target)
}

// sendReleasePin routes a pin release to the original sender, handling the
// case where the sender is this site.
func (s *Site) sendReleasePin(pinner ids.SiteID, target ids.Ref) {
	if pinner == ids.NoSite {
		return
	}
	if pinner == s.cfg.ID {
		s.table.Unpin(target)
		return
	}
	s.send(pinner, msg.ReleasePin{Target: target})
}

// applyTransferBarrierInref implements the transfer barrier (Section
// 6.1.1): "When a mutator transfers (or traverses) a reference i to site
// Q, if Q has a suspected inref for i, it cleans inref i and the outrefs
// in i.outset."
//
// Cleaning notifies the engine so any back trace active on the cleaned
// iorefs returns Live (the clean rule, Section 6.4). If a local trace is
// between computation and commit, the application is recorded and replayed
// against the new back information at commit (Section 6.2).
func (s *Site) applyTransferBarrierInref(obj ids.ObjID) {
	if s.cfg.Faults&FaultSkipTransferBarrier != 0 {
		// Fault injection for the simulation model checker: pretend the
		// implementation forgot the Section 6.1.1 barrier.
		return
	}
	in, ok := s.table.Inref(obj)
	if !ok || in.Garbage {
		return
	}
	// The barrier must be set even when the inref is currently clean by
	// distance: distance cleanliness is revocable before the next local
	// trace — a farewell Removal or a distance update from a source can
	// raise the estimate past the threshold while the transferred
	// reference sits only in a mutator variable the committed back
	// information knows nothing about. (Found by the simulation model
	// checker: a two-hop transfer whose intermediary discards its outref
	// re-dirties the inref and a back trace flags the live target.) The
	// barrier is cheap — the next local trace commit clears it.
	in.Barrier = true
	s.emit(obs.Event{Kind: obs.TransferBarrier, Obj: obj})
	s.engine.NotifyCleanedInref(obj)
	for _, target := range s.back.Outset(obj) {
		s.cleanOutref(target)
	}
	if s.tracing {
		s.pendingBarrierInrefs = append(s.pendingBarrierInrefs, obj)
	}
}

// cleanOutref barrier-cleans one outref and notifies the engine.
func (s *Site) cleanOutref(target ids.Ref) {
	o, ok := s.table.Outref(target)
	if !ok {
		return
	}
	if !o.Barrier {
		o.Barrier = true
		s.emit(obs.Event{Kind: obs.OutrefCleaned, Ref: target})
	}
	s.engine.NotifyCleanedOutref(target)
	s.notePendingBarrierOutref(target)
}

// notePendingBarrierOutref records a barrier-cleaned (or freshly created)
// outref so its clean mark survives the commit of an in-flight local trace
// (Section 6.2).
func (s *Site) notePendingBarrierOutref(target ids.Ref) {
	if s.tracing {
		s.pendingBarrierOutrefs = append(s.pendingBarrierOutrefs, target)
	}
}
