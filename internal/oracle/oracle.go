// Package oracle judges the paper's Section 1 claims — only garbage is
// collected, and every garbage cycle eventually is — from one site.Audit
// per site: global reachability over the union heap, garbage flags against
// it, and cross-site referential integrity.
package oracle

import (
	"fmt"
	"slices"
	"sort"

	"backtrace/internal/ids"
	"backtrace/internal/site"
)

// Root is a reference that is live by fiat; Via names what holds it.
type Root struct {
	Ref ids.Ref
	Via string
}

// Roots returns every persistent root in audits and, when app is set, every
// application root (mutator variables and protocol retentions), site by
// site in ascending order.
func Roots(audits map[ids.SiteID]site.Audit, app bool) []Root {
	var roots []Root
	for _, id := range sites(audits) {
		for _, obj := range audits[id].PersistentRoots {
			roots = append(roots, Root{ids.MakeRef(id, obj), fmt.Sprintf("%v persistent root", id)})
		}
		if app {
			for _, r := range audits[id].AppRoots {
				roots = append(roots, Root{r, fmt.Sprintf("%v app root", id)})
			}
		}
	}
	return roots
}

// Reach walks the union heap from roots, following references across
// sites, and returns the reachable references. A reference to a site with
// no audit, the zero reference included, is not followed. A reachable
// reference whose object does not exist yields one dangling line naming
// what holds it, unless the reference is in lost (an object a crash
// destroyed, not the collector).
func Reach(audits map[ids.SiteID]site.Audit, roots []Root, lost map[ids.Ref]struct{}) (live map[ids.Ref]struct{}, dangling []string) {
	live = make(map[ids.Ref]struct{})
	var stack []ids.Ref
	// via names the holder of r: the root's Via, or else the object from.
	push := func(r ids.Ref, via string, from ids.Ref) {
		a, known := audits[r.Site]
		if _, seen := live[r]; !known || seen {
			return
		}
		if _, exists := a.Objects[r.Obj]; !exists {
			if _, excused := lost[r]; !excused {
				if via == "" {
					via = from.String()
				}
				dangling = append(dangling,
					fmt.Sprintf("safety: live reference %v (via %s) resolves to no object", r, via))
			}
			return
		}
		live[r] = struct{}{}
		stack = append(stack, r)
	}
	for _, root := range roots {
		push(root.Ref, root.Via, ids.Ref{})
	}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range audits[r.Site].Objects[r.Obj] {
			push(f, "", r)
		}
	}
	return live, dangling
}

// Garbage counts the existing objects that are not in live — what a
// perfect collector would reclaim.
func Garbage(audits map[ids.SiteID]site.Audit, live map[ids.Ref]struct{}) int {
	n := 0
	for id, a := range audits {
		for obj := range a.Objects {
			if _, ok := live[ids.MakeRef(id, obj)]; !ok {
				n++
			}
		}
	}
	return n
}

// FlaggedLive reports every inref flagged Garbage by a back trace (a
// verdict awaiting the sweep) whose object is in live: an unsafe verdict.
func FlaggedLive(audits map[ids.SiteID]site.Audit, live map[ids.Ref]struct{}) []string {
	var out []string
	for _, id := range sites(audits) {
		for _, obj := range audits[id].GarbageFlagged {
			if _, isLive := live[ids.MakeRef(id, obj)]; isLive {
				out = append(out,
					fmt.Sprintf("safety: %v flagged Garbage by a back trace but globally reachable", ids.MakeRef(id, obj)))
			}
		}
	}
	return out
}

// Integrity audits cross-site referential integrity at a quiescent point
// (no in-flight messages):
//
//   - every remote reference field has an outref entry at its holder;
//   - every outref's target object exists at the owner, and the owner's
//     inref lists the holder as a source;
//   - every inref source entry corresponds to a site that either holds an
//     outref for it or is unreachable (stale entries are allowed to lag by
//     an update message, but not at quiescence).
//
// It returns sorted, human-readable violation descriptions (empty =
// consistent). Judge only audits of a quiet network that dropped nothing.
func Integrity(audits map[ids.SiteID]site.Audit) []string {
	var out []string
	for _, id := range sites(audits) {
		snap := audits[id]
		for obj, fields := range snap.Objects {
			for _, f := range fields {
				if f.IsZero() || f.Site == id {
					continue
				}
				if _, ok := snap.Outrefs[f]; !ok {
					out = append(out, fmt.Sprintf("site %v: object %v holds %v with no outref", id, obj, f))
				}
			}
		}
		for target := range snap.Outrefs {
			owner, ok := audits[target.Site]
			if !ok {
				out = append(out, fmt.Sprintf("site %v: outref to unknown site %v", id, target.Site))
				continue
			}
			if _, exists := owner.Objects[target.Obj]; !exists {
				out = append(out, fmt.Sprintf("site %v: outref %v targets a collected object", id, target))
				continue
			}
			srcs, ok := owner.InrefSources[target.Obj]
			if !ok {
				out = append(out, fmt.Sprintf("site %v: outref %v has no inref at owner", id, target))
				continue
			}
			if !slices.Contains(srcs, id) {
				out = append(out, fmt.Sprintf("site %v: outref %v not in owner's source list %v", id, target, srcs))
			}
		}
		for obj, srcs := range snap.InrefSources {
			for _, src := range srcs {
				holder, ok := audits[src]
				if !ok {
					continue
				}
				if _, held := holder.Outrefs[ids.MakeRef(id, obj)]; !held {
					out = append(out, fmt.Sprintf("site %v: inref %v lists source %v which holds no outref", id, obj, src))
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// sites returns the audited site ids in ascending order.
func sites(audits map[ids.SiteID]site.Audit) []ids.SiteID {
	out := make([]ids.SiteID, 0, len(audits))
	for id := range audits {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}
