package ids

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestSiteIDString(t *testing.T) {
	tests := []struct {
		in   SiteID
		want string
	}{
		{NoSite, "S0"},
		{1, "S1"},
		{42, "S42"},
	}
	for _, tt := range tests {
		if got := tt.in.String(); got != tt.want {
			t.Errorf("SiteID(%d).String() = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestObjIDString(t *testing.T) {
	if got := ObjID(17).String(); got != "o17" {
		t.Errorf("ObjID(17).String() = %q, want %q", got, "o17")
	}
	if got := NoObj.String(); got != "o0" {
		t.Errorf("NoObj.String() = %q, want %q", got, "o0")
	}
}

func TestRefZero(t *testing.T) {
	if !NilRef.IsZero() {
		t.Error("NilRef.IsZero() = false, want true")
	}
	if MakeRef(1, 2).IsZero() {
		t.Error("MakeRef(1,2).IsZero() = true, want false")
	}
	if MakeRef(0, 1).IsZero() {
		t.Error("MakeRef(0,1).IsZero() = true, want false")
	}
}

func TestRefString(t *testing.T) {
	r := MakeRef(2, 17)
	if got := r.String(); got != "S2:o17" {
		t.Errorf("Ref.String() = %q, want %q", got, "S2:o17")
	}
}

func TestRefOrdering(t *testing.T) {
	refs := []Ref{
		MakeRef(2, 1),
		MakeRef(1, 9),
		MakeRef(1, 2),
		MakeRef(3, 0),
		MakeRef(1, 2),
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].Less(refs[j]) })
	want := []Ref{
		MakeRef(1, 2),
		MakeRef(1, 2),
		MakeRef(1, 9),
		MakeRef(2, 1),
		MakeRef(3, 0),
	}
	for i := range want {
		if refs[i] != want[i] {
			t.Fatalf("sorted[%d] = %v, want %v", i, refs[i], want[i])
		}
	}
}

func TestRefCompareConsistentWithLess(t *testing.T) {
	f := func(s1, s2 uint32, o1, o2 uint64) bool {
		a := MakeRef(SiteID(s1), ObjID(o1))
		b := MakeRef(SiteID(s2), ObjID(o2))
		c := a.Compare(b)
		switch {
		case a.Less(b):
			return c == -1
		case b.Less(a):
			return c == +1
		default:
			return c == 0 && a == b
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRefLessIsStrictWeakOrder(t *testing.T) {
	// Irreflexivity and asymmetry over random pairs.
	f := func(s1, s2 uint32, o1, o2 uint64) bool {
		a := MakeRef(SiteID(s1), ObjID(o1))
		b := MakeRef(SiteID(s2), ObjID(o2))
		if a.Less(a) || b.Less(b) {
			return false
		}
		if a.Less(b) && b.Less(a) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTraceIDZeroAndString(t *testing.T) {
	if !NilTrace.IsZero() {
		t.Error("NilTrace.IsZero() = false, want true")
	}
	tr := TraceID{Initiator: 2, Seq: 5}
	if tr.IsZero() {
		t.Error("non-zero TraceID reported zero")
	}
	if got := tr.String(); got != "T(S2#5)" {
		t.Errorf("TraceID.String() = %q, want %q", got, "T(S2#5)")
	}
}

func TestTraceIDLess(t *testing.T) {
	a := TraceID{Initiator: 1, Seq: 9}
	b := TraceID{Initiator: 2, Seq: 1}
	c := TraceID{Initiator: 2, Seq: 2}
	if !a.Less(b) || !b.Less(c) || c.Less(a) {
		t.Error("TraceID ordering violated")
	}
}
