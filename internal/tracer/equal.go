package tracer

import "backtrace/internal/ids"

// EqualResults reports whether two trace results describe the same
// collector outcome: identical outref distances, dead/untraced/missing
// sets, and back information. Stats are excluded — they carry costs, such
// as durations, that differ from run to run. The comparison is
// content-based: nil compares equal to empty.
func EqualResults(a, b *Result) bool {
	if a == nil || b == nil {
		return a == b
	}
	return equalRefDists(a.OutrefDist, b.OutrefDist) &&
		equalObjIDs(a.Dead, b.Dead) &&
		equalRefs(a.Untraced, b.Untraced) &&
		equalRefs(a.Missing, b.Missing) &&
		equalBack(a.Back, b.Back)
}

func equalRefDists(a, b map[ids.Ref]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

func equalObjIDs(a, b []ids.ObjID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalRefs(a, b []ids.Ref) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalBack(a, b *BackInfo) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.Outsets) != len(b.Outsets) || len(a.Insets) != len(b.Insets) {
		return false
	}
	for in, refs := range a.Outsets {
		brefs, ok := b.Outsets[in]
		if !ok || !equalRefs(refs, brefs) {
			return false
		}
	}
	for out, objs := range a.Insets {
		bobjs, ok := b.Insets[out]
		if !ok || !equalObjIDs(objs, bobjs) {
			return false
		}
	}
	return true
}
