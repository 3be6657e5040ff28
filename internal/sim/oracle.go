package sim

import (
	"bytes"
	"fmt"
	"sort"

	"backtrace/internal/ids"
	"backtrace/internal/msg"
	"backtrace/internal/site"
)

// The oracles check the two properties the paper claims (Section 1):
//
//   - Safety — "only garbage is collected". After EVERY scheduler event the
//     safety oracle recomputes global reachability over the union heap (live
//     sites, crashed sites' durable checkpoints, and references carried by
//     in-flight transfer messages) and fails if a reachable reference
//     resolves to a deleted object, or if an inref the collector has flagged
//     Garbage (a back-trace verdict awaiting the sweep) is globally live.
//
//   - Completeness — "all garbage cycles are eventually collected". At the
//     end of a run, after faults heal and the drain rounds run, every
//     planted cycle must be gone; runs that never lost a message must also
//     reach zero global garbage and a consistent cross-site audit.

// globalAudits snapshots every site: live sites directly, crashed sites via
// the durable checkpoint captured at crash time (exactly what a future
// recovery resurrects, so it is the store's authoritative content).
func (w *world) globalAudits() (map[ids.SiteID]site.Audit, error) {
	audits := make(map[ids.SiteID]site.Audit, w.cfg.Sites)
	for i := 1; i <= w.cfg.Sites; i++ {
		id := ids.SiteID(i)
		if w.crashed[id] {
			ckptID, a, err := site.DecodeCheckpointAudit(bytes.NewReader(w.checkpoints[id]))
			if err != nil {
				return nil, fmt.Errorf("sim: audit crashed %v: %w", id, err)
			}
			if ckptID != id {
				return nil, fmt.Errorf("sim: checkpoint for %v names %v", id, ckptID)
			}
			audits[id] = a
			continue
		}
		audits[id] = w.cluster.Site(id).AuditSnapshot()
	}
	return audits, nil
}

// globalLive computes the reachable reference set over the union heap and
// reports dangling references discovered on live paths. Roots are: every
// persistent root (live and checkpointed sites alike — persistence survives
// crashes), every application root on live sites (mutator variables and
// protocol retentions), and the payload of every in-flight RefTransfer
// (the reference exists in the network even while no heap names it).
func (w *world) globalLive(audits map[ids.SiteID]site.Audit) (map[ids.Ref]struct{}, []string) {
	live := make(map[ids.Ref]struct{})
	var dangling []string
	var stack []ids.Ref
	push := func(r ids.Ref, from string) {
		if r.IsZero() {
			return
		}
		a, known := audits[r.Site]
		if !known {
			return
		}
		if _, seen := live[r]; seen {
			return
		}
		if _, exists := a.Objects[r.Obj]; !exists {
			if _, lost := w.crashLost[r]; lost {
				// The object died with a crash (volatile, not in the
				// durable image); the dangling reference is the crash's
				// doing, not an unsafe collection.
				return
			}
			dangling = append(dangling,
				fmt.Sprintf("safety: live reference %v (via %s) resolves to no object", r, from))
			return
		}
		live[r] = struct{}{}
		stack = append(stack, r)
	}
	for i := 1; i <= w.cfg.Sites; i++ {
		id := ids.SiteID(i)
		a := audits[id]
		for _, obj := range a.PersistentRoots {
			push(ids.MakeRef(id, obj), fmt.Sprintf("%v persistent root", id))
		}
		for _, r := range a.AppRoots {
			push(r, fmt.Sprintf("%v app root", id))
		}
	}
	for _, env := range w.cluster.Net().Pending() {
		if rt, ok := env.M.(msg.RefTransfer); ok {
			push(rt.Payload, fmt.Sprintf("in-flight transfer %v->%v", env.From, env.To))
		}
	}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range audits[r.Site].Objects[r.Obj] {
			push(f, r.String())
		}
	}
	return live, dangling
}

// persistentLive computes reachability from persistent roots alone over the
// final union heap. After drain the agents have retired (every mutator
// variable dropped, every in-flight transfer delivered and released), so
// persistent roots are the only legitimate source of liveness; anything
// else still holding an object is protocol retention the completeness
// oracle must not credit.
func (w *world) persistentLive() map[ids.Ref]struct{} {
	live := make(map[ids.Ref]struct{})
	audits, err := w.globalAudits()
	if err != nil {
		return live
	}
	var stack []ids.Ref
	push := func(r ids.Ref) {
		if r.IsZero() {
			return
		}
		a, known := audits[r.Site]
		if !known {
			return
		}
		if _, seen := live[r]; seen {
			return
		}
		if _, exists := a.Objects[r.Obj]; !exists {
			return
		}
		live[r] = struct{}{}
		stack = append(stack, r)
	}
	for i := 1; i <= w.cfg.Sites; i++ {
		id := ids.SiteID(i)
		for _, obj := range audits[id].PersistentRoots {
			push(ids.MakeRef(id, obj))
		}
	}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range audits[r.Site].Objects[r.Obj] {
			push(f)
		}
	}
	return live
}

// safetySnapshot is one safety-oracle evaluation plus the cheap state
// fingerprint the determinism digest folds in after every event.
type safetySnapshot struct {
	violations []string
	objects    int // total objects across all audits
	live       int // reachable references
}

// safety runs the safety oracle; empty violations mean the cut is safe.
// Deterministic: violations are sorted.
func (w *world) safety() safetySnapshot {
	audits, err := w.globalAudits()
	if err != nil {
		return safetySnapshot{violations: []string{err.Error()}}
	}
	live, violations := w.globalLive(audits)
	snap := safetySnapshot{live: len(live)}
	for i := 1; i <= w.cfg.Sites; i++ {
		id := ids.SiteID(i)
		snap.objects += len(audits[id].Objects)
		for _, obj := range audits[id].GarbageFlagged {
			if _, isLive := live[ids.MakeRef(id, obj)]; isLive {
				violations = append(violations,
					fmt.Sprintf("safety: %v flagged Garbage by a back trace but globally reachable", ids.MakeRef(id, obj)))
			}
		}
	}
	sort.Strings(violations)
	snap.violations = violations
	return snap
}

// completenessViolations runs the completeness oracle. Call it only after
// drain: faults healed, crashed sites restored, network quiet.
//
// The paper's eventual-collection claim assumes reliable links, so the
// oracle holds loss-free runs — no drop, no dup, no crash, no partition —
// to the full standard: every planted cycle collected (unless an agent
// linked it under a persistent root before retiring, in which case keeping
// it is correct), zero global garbage, and a consistent cross-site audit.
// Runs that lost messages are exempt: loss can legitimately leak retention
// — a destroyed ReleasePin pins its target forever, keeping whatever hangs
// off it alive — and the protocol has no release retransmission, exactly
// the reliable-delivery assumption the paper states. Safety, by contrast,
// is checked after every event of every run, faults or not.
func (w *world) completenessViolations() []string {
	if w.lossy {
		return nil
	}
	var violations []string
	persistent := w.persistentLive()
	for _, r := range w.rings {
		if _, live := persistent[r]; live {
			continue
		}
		if w.cluster.Site(r.Site).ContainsObject(r.Obj) {
			violations = append(violations,
				fmt.Sprintf("completeness: planted cycle object %v not collected", r))
		}
	}
	if g := w.cluster.GarbageCount(); g > 0 {
		violations = append(violations,
			fmt.Sprintf("completeness: %d garbage objects survive a loss-free run", g))
	}
	for _, v := range w.cluster.InvariantViolations() {
		violations = append(violations, "invariant: "+v)
	}
	sort.Strings(violations)
	return violations
}
