// Package ids defines the identifier types shared by every subsystem:
// site identifiers, object identifiers, fully qualified object references,
// and back-trace identifiers.
//
// The types are deliberately small value types with total orderings so they
// can be used as map keys, sorted deterministically in tests and benchmarks,
// and encoded compactly by the binary wire codec for the TCP transport.
package ids

import (
	"fmt"
	"strconv"
)

// SiteID identifies a site (a node that owns objects and runs its own local
// collector). Site identifiers are assigned by the cluster harness and are
// dense small integers starting at 1; 0 is reserved as "no site".
type SiteID uint32

// NoSite is the zero SiteID, used to mean "no site" (for example, the
// initiator field of a locally created reference).
const NoSite SiteID = 0

// String returns a short human-readable form such as "S3".
func (s SiteID) String() string {
	return "S" + strconv.FormatUint(uint64(s), 10)
}

// ObjID identifies an object within its owning site. Object identifiers are
// unique per site, never reused, and allocated by the site's heap; 0 is
// reserved as "no object".
type ObjID uint64

// NoObj is the zero ObjID, used to mean "no object".
const NoObj ObjID = 0

// String returns a short human-readable form such as "o17".
func (o ObjID) String() string {
	return "o" + strconv.FormatUint(uint64(o), 10)
}

// Ref is a fully qualified reference to an object: the owning site plus the
// object identifier within that site. Ref is the unit the inter-site
// reference-listing machinery tracks; it is also what mutators pass around.
//
// The zero Ref is "no reference" and IsZero reports it.
type Ref struct {
	Site SiteID
	Obj  ObjID
}

// NilRef is the zero Ref, meaning "no reference".
var NilRef = Ref{}

// MakeRef builds a Ref from its parts.
func MakeRef(site SiteID, obj ObjID) Ref {
	return Ref{Site: site, Obj: obj}
}

// IsZero reports whether r is the zero ("no reference") value.
func (r Ref) IsZero() bool {
	return r.Site == NoSite && r.Obj == NoObj
}

// String returns a human-readable form such as "S2:o17".
func (r Ref) String() string {
	return fmt.Sprintf("%s:%s", r.Site, r.Obj)
}

// Less defines a total order over references (by site, then object). It is
// used to sort reference sets deterministically.
func (r Ref) Less(other Ref) bool {
	if r.Site != other.Site {
		return r.Site < other.Site
	}
	return r.Obj < other.Obj
}

// Compare returns -1, 0, or +1 comparing r with other in the Less order.
func (r Ref) Compare(other Ref) int {
	switch {
	case r.Less(other):
		return -1
	case other.Less(r):
		return +1
	default:
		return 0
	}
}

// TraceID identifies a back trace. The initiating site assigns it by
// combining its own SiteID with a locally unique sequence number, so trace
// identifiers are globally unique without coordination (Section 4.7 of the
// paper: "The site starting a trace assigns it a unique id").
type TraceID struct {
	Initiator SiteID
	Seq       uint64
}

// NilTrace is the zero TraceID, meaning "no trace".
var NilTrace = TraceID{}

// IsZero reports whether t is the zero ("no trace") value.
func (t TraceID) IsZero() bool {
	return t == NilTrace
}

// String returns a human-readable form such as "T(S2#5)".
func (t TraceID) String() string {
	return fmt.Sprintf("T(%s#%d)", t.Initiator, t.Seq)
}

// Less defines a total order over trace identifiers (by initiator, then
// sequence number), used for deterministic iteration in tests.
func (t TraceID) Less(other TraceID) bool {
	if t.Initiator != other.Initiator {
		return t.Initiator < other.Initiator
	}
	return t.Seq < other.Seq
}
