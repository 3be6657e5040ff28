package main

import (
	"fmt"
	"sort"

	"backtrace/internal/ids"
	"backtrace/internal/site"
)

// The oracle runs after the load has stopped and the cluster has drained. It
// sees only AuditSnapshot copies, so a doctored audit is enough to test it.

// maxViolationsListed bounds the report; the count is always exact.
const maxViolationsListed = 20

type oracleReport struct {
	Violations []string
	Count      int
}

func (r *oracleReport) fail(format string, args ...any) {
	r.Count++
	if len(r.Violations) < maxViolationsListed {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
}

// checkCluster asserts, from one audit per site:
//
//   - safety: every object the generator knows is live still exists, and no
//     garbage-flagged inref names a globally reachable object;
//   - completeness: no expired planted structure survives;
//   - referential integrity: every outref's target exists and its inref
//     lists the holder as a source.
func checkCluster(audits map[ids.SiteID]site.Audit, live []ids.Ref, expired []*planted) oracleReport {
	var rep oracleReport
	exists := func(r ids.Ref) bool {
		a, ok := audits[r.Site]
		if !ok {
			return false
		}
		_, ok = a.Objects[r.Obj]
		return ok
	}
	for _, r := range live {
		if !exists(r) {
			rep.fail("safety: live object %v was collected", r)
		}
	}

	reachable := make(map[ids.Ref]struct{}, len(live))
	var stack []ids.Ref
	push := func(r ids.Ref) {
		if r.IsZero() || !exists(r) {
			return
		}
		if _, seen := reachable[r]; seen {
			return
		}
		reachable[r] = struct{}{}
		stack = append(stack, r)
	}
	for id, a := range audits {
		for _, obj := range a.PersistentRoots {
			push(ids.MakeRef(id, obj))
		}
		for _, r := range a.AppRoots {
			push(r)
		}
	}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range audits[r.Site].Objects[r.Obj] {
			push(f)
		}
	}
	siteIDs := make([]ids.SiteID, 0, len(audits))
	for id := range audits {
		siteIDs = append(siteIDs, id)
	}
	sort.Slice(siteIDs, func(i, j int) bool { return siteIDs[i] < siteIDs[j] })
	for _, id := range siteIDs {
		a := audits[id]
		for _, obj := range a.GarbageFlagged {
			if _, ok := reachable[ids.MakeRef(id, obj)]; ok {
				rep.fail("safety: inref %v flagged garbage but globally reachable", ids.MakeRef(id, obj))
			}
		}
		targets := make([]ids.Ref, 0, len(a.Outrefs))
		for t := range a.Outrefs {
			targets = append(targets, t)
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i].Less(targets[j]) })
		for _, t := range targets {
			if !exists(t) {
				rep.fail("integrity: site %v holds an outref to %v, which does not exist", id, t)
				continue
			}
			listed := false
			for _, src := range audits[t.Site].InrefSources[t.Obj] {
				if src == id {
					listed = true
					break
				}
			}
			if !listed {
				rep.fail("integrity: outref %v at site %v is not in the owner's source list", t, id)
			}
		}
	}

	for _, p := range expired {
		for _, m := range p.members {
			if exists(m) {
				rep.fail("completeness: planted structure created at round %d survives (member %v)", p.createdRound, m)
				break
			}
		}
	}
	return rep
}

func auditAll(c *cluster) map[ids.SiteID]site.Audit {
	audits := make(map[ids.SiteID]site.Audit, len(c.sites))
	for i, s := range c.sites {
		audits[ids.SiteID(i+1)] = s.AuditSnapshot()
	}
	return audits
}
