package oracle

import (
	"slices"
	"strings"
	"testing"

	"backtrace/internal/ids"
	"backtrace/internal/site"
)

// twoSites is a consistent two-site heap: site 1's persistent root o1 holds
// a local o2 (whose one field is nil) and a remote S2:o1; site 2's o1 holds
// a local o2. Site 2's o3 is held only by site 1's application root, and
// site 2's o4 is garbage.
func twoSites() map[ids.SiteID]site.Audit {
	return map[ids.SiteID]site.Audit{
		1: {
			Objects: map[ids.ObjID][]ids.Ref{
				1: {ids.MakeRef(1, 2), ids.MakeRef(2, 1)},
				2: {{}},
			},
			PersistentRoots: []ids.ObjID{1},
			AppRoots:        []ids.Ref{ids.MakeRef(2, 3)},
			Outrefs:         map[ids.Ref]struct{}{ids.MakeRef(2, 1): {}, ids.MakeRef(2, 3): {}},
			InrefSources:    map[ids.ObjID][]ids.SiteID{},
		},
		2: {
			Objects: map[ids.ObjID][]ids.Ref{
				1: {ids.MakeRef(2, 2)},
				2: nil,
				3: nil,
				4: nil,
			},
			Outrefs:      map[ids.Ref]struct{}{},
			InrefSources: map[ids.ObjID][]ids.SiteID{1: {1}, 3: {1}},
		},
	}
}

func TestReachAndGarbage(t *testing.T) {
	audits := twoSites()
	live, dangling := Reach(audits, Roots(audits, true), nil)
	if len(dangling) != 0 {
		t.Fatalf("consistent heap dangles: %v", dangling)
	}
	for _, r := range []ids.Ref{ids.MakeRef(1, 1), ids.MakeRef(1, 2), ids.MakeRef(2, 1), ids.MakeRef(2, 2), ids.MakeRef(2, 3)} {
		if _, ok := live[r]; !ok {
			t.Errorf("%v not reached", r)
		}
	}
	if len(live) != 5 {
		t.Errorf("reached %d references, want 5", len(live))
	}
	if g := Garbage(audits, live); g != 1 {
		t.Errorf("Garbage = %d, want 1 (S2:o4)", g)
	}
}

// TestRootsLeavesOutAppRoots: without app roots, what only an application
// root holds is not reached.
func TestRootsLeavesOutAppRoots(t *testing.T) {
	audits := twoSites()
	roots := Roots(audits, false)
	if len(roots) != 1 || roots[0].Ref != ids.MakeRef(1, 1) || roots[0].Via != "S1 persistent root" {
		t.Fatalf("Roots(false) = %+v, want only site 1's persistent root", roots)
	}
	all := Roots(audits, true)
	if len(all) != 2 || all[1].Ref != ids.MakeRef(2, 3) || !strings.Contains(all[1].Via, "app root") {
		t.Fatalf("Roots(true) = %+v, want the persistent root then the app root", all)
	}
	live, _ := Reach(audits, roots, nil)
	if _, ok := live[ids.MakeRef(2, 3)]; ok {
		t.Error("an object only an app root holds was reached from persistent roots")
	}
	if g := Garbage(audits, live); g != 2 {
		t.Errorf("Garbage = %d, want 2", g)
	}
}

// TestReachDangling: a root-reached reference to a missing object gives one
// line naming what holds it, and none when the object is excused as lost.
func TestReachDangling(t *testing.T) {
	audits := twoSites()
	delete(audits[2].Objects, 3) // the app root's target is gone
	delete(audits[2].Objects, 2) // and so is the field target of S2:o1
	live, dangling := Reach(audits, Roots(audits, true), nil)
	want := []string{
		"safety: live reference S2:o3 (via S1 app root) resolves to no object",
		"safety: live reference S2:o2 (via S2:o1) resolves to no object",
	}
	if len(dangling) != len(want) {
		t.Fatalf("dangling = %q, want %q", dangling, want)
	}
	for _, w := range want {
		if !slices.Contains(dangling, w) {
			t.Errorf("dangling = %q, missing %q", dangling, w)
		}
	}
	if _, ok := live[ids.MakeRef(2, 3)]; ok {
		t.Error("a missing object counted as live")
	}
	lost := map[ids.Ref]struct{}{ids.MakeRef(2, 3): {}, ids.MakeRef(2, 2): {}}
	if _, dangling := Reach(audits, Roots(audits, true), lost); len(dangling) != 0 {
		t.Errorf("lost objects still dangle: %q", dangling)
	}
}

// TestFlaggedLive: a Garbage-flagged inref is reported only when reachable.
func TestFlaggedLive(t *testing.T) {
	audits := twoSites()
	a := audits[2]
	a.GarbageFlagged = []ids.ObjID{1, 4} // o1 is live, o4 is garbage
	audits[2] = a
	live, _ := Reach(audits, Roots(audits, true), nil)
	got := FlaggedLive(audits, live)
	if len(got) != 1 || got[0] != "safety: S2:o1 flagged Garbage by a back trace but globally reachable" {
		t.Fatalf("FlaggedLive = %q, want one line for S2:o1", got)
	}
}

// TestIntegrity: the consistent heap passes, and each doctored audit is
// reported with its own kind of violation.
func TestIntegrity(t *testing.T) {
	if v := Integrity(twoSites()); len(v) != 0 {
		t.Fatalf("consistent heap: %q", v)
	}
	for _, tc := range []struct {
		name   string
		doctor func(map[ids.SiteID]site.Audit)
		want   string
	}{
		{"field without outref", func(m map[ids.SiteID]site.Audit) {
			delete(m[1].Outrefs, ids.MakeRef(2, 1))
			delete(m[2].InrefSources, 1)
		}, "site S1: object o1 holds S2:o1 with no outref"},
		{"outref to unknown site", func(m map[ids.SiteID]site.Audit) {
			m[1].Outrefs[ids.MakeRef(9, 1)] = struct{}{}
		}, "site S1: outref to unknown site S9"},
		{"outref to collected object", func(m map[ids.SiteID]site.Audit) {
			delete(m[2].Objects, 3)
		}, "site S1: outref S2:o3 targets a collected object"},
		{"outref without inref", func(m map[ids.SiteID]site.Audit) {
			delete(m[2].InrefSources, 3)
		}, "site S1: outref S2:o3 has no inref at owner"},
		{"holder missing from sources", func(m map[ids.SiteID]site.Audit) {
			m[2].InrefSources[3] = []ids.SiteID{2}
		}, "site S1: outref S2:o3 not in owner's source list [S2]"},
		{"source without outref", func(m map[ids.SiteID]site.Audit) {
			m[2].InrefSources[4] = []ids.SiteID{1}
		}, "site S2: inref o4 lists source S1 which holds no outref"},
	} {
		audits := twoSites()
		tc.doctor(audits)
		if v := Integrity(audits); !slices.Contains(v, tc.want) {
			t.Errorf("%s: Integrity = %q, want a line %q", tc.name, v, tc.want)
		}
	}
}
