package sim

import (
	"bytes"
	"fmt"
	"sort"

	"backtrace/internal/ids"
	"backtrace/internal/msg"
	"backtrace/internal/oracle"
	"backtrace/internal/site"
)

// The oracles check the two properties the paper claims (Section 1), each
// judged by internal/oracle over one audit of every site:
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

// safetySnapshot is one safety-oracle evaluation plus the cheap state
// fingerprint the determinism digest folds in after every event.
type safetySnapshot struct {
	violations []string
	objects    int // total objects across all audits
	live       int // reachable references
}

// safety runs the safety oracle; empty violations mean the cut is safe.
// Deterministic: violations are sorted. It walks the union heap from every
// persistent root (live and checkpointed sites alike — persistence survives
// crashes), every application root on live sites (mutator variables and
// protocol retentions), and the payload of every in-flight RefTransfer (the
// reference exists in the network even while no heap names it). References
// to objects a crash destroyed (crashLost) do not dangle.
func (w *world) safety() safetySnapshot {
	audits, err := w.globalAudits()
	if err != nil {
		return safetySnapshot{violations: []string{err.Error()}}
	}
	roots := oracle.Roots(audits, true)
	for _, env := range w.cluster.Net().Pending() {
		if rt, ok := env.M.(msg.RefTransfer); ok {
			roots = append(roots, oracle.Root{Ref: rt.Payload, Via: fmt.Sprintf("in-flight transfer %v->%v", env.From, env.To)})
		}
	}
	live, violations := oracle.Reach(audits, roots, w.crashLost)
	snap := safetySnapshot{live: len(live)}
	for _, a := range audits {
		snap.objects += len(a.Objects)
	}
	violations = append(violations, oracle.FlaggedLive(audits, live)...)
	sort.Strings(violations)
	snap.violations = violations
	return snap
}

// completenessViolations runs the completeness oracle over one audit of
// every site. Call it only after drain: faults healed, crashed sites
// restored, network quiet.
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
	audits, err := w.globalAudits()
	if err != nil {
		return []string{err.Error()}
	}
	var violations []string
	// After drain the agents have retired (every mutator variable dropped,
	// every in-flight transfer delivered and released), so persistent roots
	// are the only legitimate source of a planted cycle's liveness.
	persistent, _ := oracle.Reach(audits, oracle.Roots(audits, false), nil)
	for _, r := range w.rings {
		if _, live := persistent[r]; live {
			continue
		}
		if _, exists := audits[r.Site].Objects[r.Obj]; exists {
			violations = append(violations,
				fmt.Sprintf("completeness: planted cycle object %v not collected", r))
		}
	}
	live, _ := oracle.Reach(audits, oracle.Roots(audits, true), nil)
	if g := oracle.Garbage(audits, live); g > 0 {
		violations = append(violations,
			fmt.Sprintf("completeness: %d garbage objects survive a loss-free run", g))
	}
	for _, v := range oracle.Integrity(audits) {
		violations = append(violations, "invariant: "+v)
	}
	sort.Strings(violations)
	return violations
}
