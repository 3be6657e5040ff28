package msg

import (
	"testing"

	"backtrace/internal/ids"
)

func TestVerdictString(t *testing.T) {
	if VerdictGarbage.String() != "Garbage" || VerdictLive.String() != "Live" {
		t.Fatal("verdict names wrong")
	}
	if Verdict(9).String() == "" {
		t.Fatal("unknown verdict empty")
	}
}

func TestVerdictZeroValueIsGarbage(t *testing.T) {
	// Activation frames rely on the zero value accumulating as Garbage
	// until a Live reply overrides it.
	var v Verdict
	if v != VerdictGarbage {
		t.Fatal("zero Verdict is not Garbage")
	}
}

func TestNameUnknownType(t *testing.T) {
	type weird struct{ Report }
	if got := Name(weird{}); got == "" {
		t.Fatal("empty name for unknown type")
	}
}

func TestLeavesDescendsWrappers(t *testing.T) {
	m := LinkBatch{
		Epoch: 1, Base: 5,
		Items: []Message{
			Update{Holds: []ids.ObjID{1, 2}},
			LinkBatch{Epoch: 1, Base: 6, Items: []Message{BackCall{Trace: ids.TraceID{Initiator: 1, Seq: 9}, Steps: []BackStep{{Outref: 3}}}}},
			Report{Outcome: VerdictLive},
		},
	}
	var names []string
	Leaves(m, func(leaf Message) { names = append(names, Name(leaf)) })
	want := []string{"Update", "BackCall", "Report"}
	if len(names) != len(want) {
		t.Fatalf("Leaves visited %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Leaves visited %v, want %v", names, want)
		}
	}
}

func TestNameCoversEveryMessageType(t *testing.T) {
	all := []Message{
		RefTransfer{}, Insert{}, InsertAck{}, ReleasePin{}, Update{},
		BackCall{}, BackReply{}, Report{},
		LinkBatch{}, LinkAck{}, LinkReset{},
	}
	seen := make(map[string]bool)
	for _, m := range all {
		name := Name(m)
		if name == "" || name[0] == '*' || seen[name] {
			t.Errorf("Name(%T) = %q (empty, pointerish, or duplicate)", m, name)
		}
		seen[name] = true
	}
}
