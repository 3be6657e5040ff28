package site

import (
	"bytes"
	"encoding/gob"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"backtrace/internal/ids"
	"backtrace/internal/transport"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/checkpoint.golden from the current encoder")

// goldenCheckpointSite builds a site whose durable state spans several heap
// pages, with a swept gap in the middle: the persist pair's
// site A, plus a 1 200-object chain from its root cut after 200 objects
// and re-linked at 900, so one local trace sweeps the 700 objects between.
// Every fifth object also points at A's half of the cross-site cycle, and
// every third chain object (from 1 000 on) is a persistent root.
func goldenCheckpointSite(t *testing.T) *Site {
	t.Helper()
	a, _, net, refs := buildPersistPair(t)
	root := refs[0]
	chain := make([]ids.Ref, 1200)
	prev := root
	for i := range chain {
		chain[i] = a.NewObject()
		if err := a.AddReference(prev.Obj, chain[i]); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			if err := a.AddReference(chain[i].Obj, refs[2]); err != nil {
				t.Fatal(err)
			}
		}
		if i >= 1000 && i%3 == 0 {
			if err := a.MarkPersistentRoot(chain[i].Obj); err != nil {
				t.Fatal(err)
			}
		}
		a.DropAppRoot(chain[i])
		prev = chain[i]
	}
	if err := a.RemoveReference(chain[199].Obj, chain[200]); err != nil {
		t.Fatal(err)
	}
	if err := a.AddReference(chain[199].Obj, chain[900]); err != nil {
		t.Fatal(err)
	}
	if err := a.RemoveReference(chain[899].Obj, chain[900]); err != nil {
		t.Fatal(err)
	}
	if rep := a.RunLocalTrace(); rep.Collected != 700 {
		t.Fatalf("setup swept %d objects, want 700", rep.Collected)
	}
	net.DeliverAll()
	return a
}

// TestCheckpointBytesStable pins the checkpoint encoding byte for byte
// against testdata/checkpoint.golden, written by an earlier version of the
// store (regenerate only for a deliberate format change, with -update), and
// checks the round trip: restoring the golden file and checkpointing again
// yields the same record, bar the trace counter Restore moves on.
func TestCheckpointBytesStable(t *testing.T) {
	golden := filepath.Join("testdata", "checkpoint.golden")
	var buf bytes.Buffer
	if err := goldenCheckpointSite(t).WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("checkpoint encoding changed: %d bytes, golden %d", buf.Len(), len(want))
	}

	net := transport.NewNet(transport.Options{Stepped: true})
	defer net.Close()
	restored, err := Restore(Config{Network: net, SuspicionThreshold: 3, BackThreshold: 7}, bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := restored.WriteCheckpoint(&again); err != nil {
		t.Fatal(err)
	}
	first, err := decodeSnapshot(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	second, err := decodeSnapshot(&again)
	if err != nil {
		t.Fatal(err)
	}
	second.NextTrace = first.NextTrace
	if !reflect.DeepEqual(first, second) {
		t.Fatal("restore then checkpoint changed the durable state")
	}
}

// TestRestoreRejectsCorruptObjects checks that Restore returns an error,
// rather than allocating a page directory out to a corrupt id or truncating
// a size, for an object record whose id lies past the checkpoint's
// allocation mark (one flipped high bit) or whose size does not fit in 32
// bits.
func TestRestoreRejectsCorruptObjects(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "checkpoint.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]func(o *objectRec){
		"id high bit":    func(o *objectRec) { o.ID |= 1 << 62 },
		"id past mark":   func(o *objectRec) { o.ID += 1 << 20 },
		"negative size":  func(o *objectRec) { o.Size = -1 },
		"size past 2^31": func(o *objectRec) { o.Size = math.MaxInt32 + 1 },
	} {
		rec, err := decodeSnapshot(bytes.NewReader(want))
		if err != nil {
			t.Fatal(err)
		}
		corrupt(&rec.Objects[len(rec.Objects)/2])
		buf := bytes.NewBuffer(append(append([]byte(nil), checkpointMagic...), checkpointFormatGob))
		if err := gob.NewEncoder(buf).Encode(rec); err != nil {
			t.Fatal(err)
		}
		net := transport.NewNet(transport.Options{Stepped: true})
		if _, err := Restore(Config{Network: net, SuspicionThreshold: 3, BackThreshold: 7}, buf); err == nil {
			t.Errorf("%s: Restore accepted the corrupt record", name)
		}
		net.Close()
	}
}
