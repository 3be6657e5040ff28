package site

import (
	"backtrace/internal/ids"
	"backtrace/internal/transport"
)

// This file keeps the owner's record of owner-sent reference transfers.
//
// When a site sends a reference to one of its own objects, it lists the
// receiver as a source of the object's inref at send time, so the receiver
// needs no insert round trip (docs/ALGORITHM.md, "Owner-sent transfers").
// What the round trip used to buy is ordering: an Update the receiver built
// before the transfer arrived must not drop the new source. The receiver
// therefore answers each owner-sent transfer with a receipt (a ReleasePin
// for the owner's object) when it applies it. Under R1 the receipt follows
// every Update the receiver built before applying the transfer, so the
// owner counts, per receiver and object, the transfers it has sent and not
// yet seen receipted, and ignores a removal or reconciliation drop of an
// object whose count is above zero. Until the count falls back to zero the
// object's inref keeps its transfer-barrier clean mark across local-trace
// commits: the reference travels in a message, and nothing else at the
// owner vouches for it.
//
// The record is volatile and bounded: a count falls with each receipt, and
// the whole record for a receiver is voided when the receiver restarts (its
// variables, and with them any reference in flight to it, died with the old
// incarnation). A transfer or receipt lost on a raw lossy link strands its
// count until the receiver restarts — the object is collected later, never
// wrongly. This is the same failure as a lost transfer's stranded pin under
// the insert protocol; the session layer (transport.Reliable) makes it
// impossible.

// transferLog is the owner's record for one receiving site.
type transferLog struct {
	// pending counts, per object, the transfers not yet receipted: the
	// object is protected while it has a count.
	pending map[ids.ObjID]int
	// fresh holds the objects whose inref gained the receiver as a new
	// source through a transfer still pending, with no Insert from the
	// receiver seen since. An Insert the receiver sent for one of them (it
	// applied a third party's transfer of the same reference first) must
	// still release that third party's pin, although the receiver is
	// already listed; see handleInsert.
	fresh map[ids.ObjID]struct{}
}

func newTransferLog() *transferLog {
	return &transferLog{pending: make(map[ids.ObjID]int), fresh: make(map[ids.ObjID]struct{})}
}

// noteTransferLocked records an owner-sent transfer of obj to holder.
// newSource reports whether the send added holder to obj's source list.
func (s *Site) noteTransferLocked(holder ids.SiteID, obj ids.ObjID, newSource bool) {
	l := s.transfers[holder]
	if l == nil {
		l = newTransferLog()
		s.transfers[holder] = l
	}
	l.pending[obj]++
	if newSource {
		l.fresh[obj] = struct{}{}
	}
	s.transfersPending++
	s.gaugeTransfers.Add(1)
}

// receiptLocked handles holder's receipt for a transfer of obj (a
// ReleasePin for this site's own object). Every Update the holder built
// before applying the transfer was sent before the receipt and has already
// been checked against the count, so the receipt lowers it. A receipt the
// holder's dead incarnation sent is ignored: the restart already voided
// what it acknowledges.
func (s *Site) receiptLocked(holder ids.SiteID, obj ids.ObjID) {
	if s.restarting[holder] > 0 {
		return
	}
	l := s.transfers[holder]
	if l == nil || l.pending[obj] == 0 {
		return
	}
	if l.pending[obj]--; l.pending[obj] == 0 {
		delete(l.pending, obj)
		delete(l.fresh, obj)
	}
	s.transfersPending--
	s.gaugeTransfers.Add(-1)
}

// transferPendingLocked reports whether obj has an owner-sent transfer to
// holder that the holder has not yet receipted: the check that keeps a
// stale Update from dropping the holder as a source.
func (s *Site) transferPendingLocked(holder ids.SiteID, obj ids.ObjID) bool {
	if s.cfg.Faults&FaultSkipTransferCheck != 0 {
		return false
	}
	l := s.transfers[holder]
	return l != nil && l.pending[obj] > 0
}

// takeFreshLocked reports whether holder is listed on obj's inref only by
// a pending owner-sent transfer, and forgets that: the first Insert from
// holder since then is the one that counts.
func (s *Site) takeFreshLocked(holder ids.SiteID, obj ids.ObjID) bool {
	l := s.transfers[holder]
	if l == nil {
		return false
	}
	_, ok := l.fresh[obj]
	delete(l.fresh, obj)
	return ok
}

// PeerRestarted tells the site that peer came back as a new incarnation.
// The site voids its record of owner-sent transfers to peer: whatever they
// carried died with the old incarnation's variables. Its next Update to
// peer is full. The session layer calls it before it opens a session to
// the new incarnation (transport.PeerRestartHandler); the stepped
// simulation's restart calls it through the in-memory network.
//
// With an inbox, messages the dead incarnation sent may still be queued
// behind the news. Until the dispatcher reaches a marker queued here, the
// site treats receipts to and from peer as the dead incarnation's: a
// receipt from peer is ignored, and an owner-sent transfer from peer gets
// none (the new incarnation did not record it).
func (s *Site) PeerRestarted(peer ids.SiteID) {
	s.mu.Lock()
	s.voidPeerLocked(peer)
	s.mu.Unlock()
	if s.inbox != nil {
		s.inbox.enqueue(peer, nil)
	}
}

// voidPeerLocked is PeerRestarted's work under the site lock; the caller
// queues the marker after it, outside the lock.
func (s *Site) voidPeerLocked(peer ids.SiteID) {
	// The new incarnation may hold older distances than this site last
	// sent (its checkpoint's), or none: the next update to it is full.
	delete(s.sinceFull, peer)
	if l := s.transfers[peer]; l != nil {
		for _, n := range l.pending {
			s.transfersPending -= n
			s.gaugeTransfers.Add(-int64(n))
		}
		delete(s.transfers, peer)
	}
	if s.inbox != nil {
		s.restarting[peer]++
	}
}

// restartReachedLocked runs when the dispatcher reaches the marker (a nil
// message) PeerRestarted queued: everything the dead incarnation of peer
// delivered before the news has been applied.
func (s *Site) restartReachedLocked(peer ids.SiteID) {
	if s.restarting[peer]--; s.restarting[peer] <= 0 {
		delete(s.restarting, peer)
	}
}

var _ transport.PeerRestartHandler = (*Site)(nil)

// OwnerTransfersPending returns the number of owner-sent transfers this
// site has not yet seen receipted (the site.owner_transfers_pending
// gauge sums it over the sites sharing a registry).
func (s *Site) OwnerTransfersPending() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.transfersPending
}

// rebarrierTransfersLocked re-applies the transfer-barrier clean mark to
// the inrefs of objects with an unreceipted owner-sent transfer (and to
// their outsets), after a commit reset the marks: the reference is still in
// a message, and only the barrier keeps a back trace from calling its
// object garbage before the receiver holds it.
func (s *Site) rebarrierTransfersLocked() {
	for _, l := range s.transfers {
		for obj := range l.pending {
			s.rebarrierInrefLocked(obj)
		}
	}
}

// rebarrierInrefLocked sets the clean mark on obj's inref and its outset
// outrefs against the installed back information, without notifying the
// engine (commit replay: nothing became cleaner than it already was).
func (s *Site) rebarrierInrefLocked(obj ids.ObjID) {
	in, ok := s.table.Inref(obj)
	if !ok || in.Garbage {
		return
	}
	in.Barrier = true
	for _, target := range s.back.Outset(obj) {
		if o, ok := s.table.Outref(target); ok {
			o.Barrier = true
		}
	}
}
