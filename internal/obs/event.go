package obs

import (
	"fmt"

	"backtrace/internal/ids"
	"backtrace/internal/msg"
)

// EventKind classifies an event.
type EventKind int

// Event kinds.
const (
	// TraceStarted: a back trace was initiated from Ref (an outref).
	TraceStarted EventKind = iota + 1
	// TraceCompleted: a back trace this site initiated finished with
	// Verdict; N is the number of participant sites.
	TraceCompleted
	// InrefFlagged: the report phase flagged inref Obj as garbage.
	InrefFlagged
	// ObjectsCollected: a local trace swept N objects.
	ObjectsCollected
	// OutrefsTrimmed: a local trace dropped N outrefs.
	OutrefsTrimmed
	// TransferBarrier: the transfer barrier cleaned inref Obj (and its
	// outset).
	TransferBarrier
	// OutrefCleaned: an outref (Ref) was barrier-cleaned.
	OutrefCleaned
	// TimeoutAssumedLive: a back-trace wait timed out and was resolved
	// as Live (Trace identifies it when known).
	TimeoutAssumedLive
	// CheckpointWritten: the site serialized its durable state.
	CheckpointWritten
	// SiteRestored: the site was rebuilt from a checkpoint.
	SiteRestored
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case TraceStarted:
		return "trace-started"
	case TraceCompleted:
		return "trace-completed"
	case InrefFlagged:
		return "inref-flagged"
	case ObjectsCollected:
		return "objects-collected"
	case OutrefsTrimmed:
		return "outrefs-trimmed"
	case TransferBarrier:
		return "transfer-barrier"
	case OutrefCleaned:
		return "outref-cleaned"
	case TimeoutAssumedLive:
		return "timeout-assumed-live"
	case CheckpointWritten:
		return "checkpoint-written"
	case SiteRestored:
		return "site-restored"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// MarshalText implements encoding.TextMarshaler so JSON dumps carry the
// symbolic kind.
func (k EventKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Event is one structured collector event. Fields beyond Kind and Site are
// meaningful per kind (see the EventKind constants). Seq is assigned by the
// Collector that stores the event: its position in everything it received.
type Event struct {
	Seq     uint64      `json:"seq"`
	Site    ids.SiteID  `json:"site"`
	Kind    EventKind   `json:"kind"`
	Trace   ids.TraceID `json:"trace"`
	Obj     ids.ObjID   `json:"obj,omitempty"`
	Ref     ids.Ref     `json:"ref"`
	N       int         `json:"n,omitempty"`
	Verdict msg.Verdict `json:"verdict"`
}

// String renders the event compactly.
func (e Event) String() string {
	s := fmt.Sprintf("#%d %v %s", e.Seq, e.Site, e.Kind)
	if !e.Trace.IsZero() {
		s += " " + e.Trace.String()
	}
	if e.Obj != ids.NoObj {
		s += " " + e.Obj.String()
	}
	if !e.Ref.IsZero() {
		s += " " + e.Ref.String()
	}
	switch e.Kind {
	case TraceCompleted:
		s += fmt.Sprintf(" %s participants=%d", e.Verdict, e.N)
	case ObjectsCollected, OutrefsTrimmed:
		s += fmt.Sprintf(" n=%d", e.N)
	}
	return s
}
