package site

import (
	"bytes"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"backtrace/internal/heap"
	"backtrace/internal/ids"
	"backtrace/internal/msg"
	"backtrace/internal/transport"
)

// buildPersistPair creates two sites with a live chain and a cross-site
// garbage cycle, distances propagated.
func buildPersistPair(t *testing.T) (*Site, *Site, *transport.Net, [4]ids.Ref) {
	t.Helper()
	net := transport.NewNet(transport.Options{Stepped: true})
	t.Cleanup(net.Close)
	a := New(Config{ID: 1, Network: net, SuspicionThreshold: 3, BackThreshold: 7, AutoBackTrace: true})
	b := New(Config{ID: 2, Network: net, SuspicionThreshold: 3, BackThreshold: 7, AutoBackTrace: true})

	link := func(holder, owner *Site, from, target ids.Ref) {
		t.Helper()
		if err := owner.SendRef(from.Site, target); err != nil {
			t.Fatal(err)
		}
		net.DeliverAll()
		if err := holder.AddReference(from.Obj, target); err != nil {
			t.Fatal(err)
		}
		holder.DropAppRoot(target)
		net.DeliverAll()
	}

	root := a.NewRootObject()
	live := b.NewObject()
	link(a, b, root, live)
	x := a.NewObject()
	y := b.NewObject()
	link(a, b, x, y)
	link(b, a, y, x)

	// A few rounds of distance propagation (not enough to collect).
	for i := 0; i < 2; i++ {
		a.RunLocalTrace()
		net.DeliverAll()
		b.RunLocalTrace()
		net.DeliverAll()
	}
	return a, b, net, [4]ids.Ref{root, live, x, y}
}

func TestCheckpointRoundTrip(t *testing.T) {
	_, b, _, refs := buildPersistPair(t)

	var buf bytes.Buffer
	if err := b.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	// Restore onto a fresh network (standalone comparison).
	net2 := transport.NewNet(transport.Options{Stepped: true})
	defer net2.Close()
	b2, err := Restore(Config{Network: net2, SuspicionThreshold: 3, BackThreshold: 7}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if b2.ID() != 2 {
		t.Fatalf("restored site id %v", b2.ID())
	}
	if b2.NumObjects() != b.NumObjects() {
		t.Fatalf("objects: restored %d, original %d", b2.NumObjects(), b.NumObjects())
	}
	if b2.NumInrefs() != b.NumInrefs() || b2.NumOutrefs() != b.NumOutrefs() {
		t.Fatal("ioref tables differ after restore")
	}
	// Live and cycle objects present.
	for _, r := range []ids.Ref{refs[1], refs[3]} {
		if !b2.ContainsObject(r.Obj) {
			t.Fatalf("restored site missing object %v", r)
		}
	}
	// Restored iorefs are conservatively clean until the first trace.
	for _, in := range b2.Inrefs() {
		if !in.Clean {
			t.Errorf("restored inref %v not clean", in.Obj)
		}
	}
	for _, o := range b2.Outrefs() {
		if !o.Clean {
			t.Errorf("restored outref %v not clean", o.Target)
		}
	}
}

// gateWriter blocks its first Write until release is closed, announcing on
// entered that it got there.
type gateWriter struct {
	entered, release chan struct{}
	once             sync.Once
	buf              bytes.Buffer
}

func (w *gateWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.entered)
		<-w.release
	})
	return w.buf.Write(p)
}

// TestCheckpointCutReleasesLock checks that WriteCheckpoint holds the site
// lock only for its cut: while the checkpoint's writer is blocked, a
// mutator allocates, links and drops a variable, and a full local trace
// sweeps objects on pages the cut holds. The restored image must still be
// the state at the cut.
func TestCheckpointCutReleasesLock(t *testing.T) {
	_, b, _, refs := buildPersistPair(t)
	// A live chain over three pages and unrooted garbage beside it, so the
	// trace below writes pages the checkpoint's view holds.
	prev := refs[1]
	var chain []ids.Ref
	for i := 0; i < 3*heap.PageSlots; i++ {
		o := b.NewObject()
		if i%2 == 1 {
			continue // garbage
		}
		if err := b.AddReference(prev.Obj, o); err != nil {
			t.Fatal(err)
		}
		chain = append(chain, o)
		prev = o
	}
	held := b.NewHeldObject()
	want := b.AuditSnapshot()

	w := &gateWriter{entered: make(chan struct{}), release: make(chan struct{})}
	errc := make(chan error, 1)
	go func() { errc <- b.WriteCheckpoint(w) }()
	select {
	case <-w.entered:
	case err := <-errc:
		t.Fatalf("WriteCheckpoint returned %v before writing", err)
	case <-time.After(10 * time.Second):
		t.Fatal("WriteCheckpoint never wrote")
	}

	done := make(chan TraceReport)
	go func() {
		o := b.NewObject()
		if err := b.AddReference(chain[0].Obj, o); err != nil {
			t.Error(err)
		}
		b.DropAppRoot(held)
		done <- b.RunLocalTrace()
	}()
	select {
	case rep := <-done:
		if rep.Collected == 0 {
			t.Fatal("the local trace swept nothing: the test writes no page the cut holds")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("mutator and local trace blocked while the checkpoint was being written: the site lock is held")
	}
	close(w.release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if b.ContainsObject(held.Obj) {
		t.Fatal("the dropped variable's object survived the trace")
	}

	net2 := transport.NewNet(transport.Options{Stepped: true})
	defer net2.Close()
	b2, err := Restore(Config{Network: net2, SuspicionThreshold: 3, BackThreshold: 7}, &w.buf)
	if err != nil {
		t.Fatal(err)
	}
	got := b2.AuditSnapshot()
	want.AppRoots = nil // volatile: not checkpointed
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored image differs from the state at the cut:\n got %d objects, roots %v, outrefs %v, inrefs %v, flagged %v\nwant %d objects, roots %v, outrefs %v, inrefs %v, flagged %v",
			len(got.Objects), got.PersistentRoots, got.Outrefs, got.InrefSources, got.GarbageFlagged,
			len(want.Objects), want.PersistentRoots, want.Outrefs, want.InrefSources, want.GarbageFlagged)
	}
}

func TestCheckpointVersionAndIDChecks(t *testing.T) {
	_, b, _, _ := buildPersistPair(t)
	var buf bytes.Buffer
	if err := b.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	net2 := transport.NewNet(transport.Options{Stepped: true})
	defer net2.Close()
	if _, err := Restore(Config{ID: 9, Network: net2}, &buf); err == nil {
		t.Fatal("restore with mismatched site id accepted")
	}
	if _, err := Restore(Config{Network: net2}, bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("restore of junk accepted")
	}
}

func TestCheckpointFileAtomic(t *testing.T) {
	_, b, _, _ := buildPersistPair(t)
	path := filepath.Join(t.TempDir(), "site2.ckpt")
	if err := b.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a newer checkpoint (rename path).
	if err := b.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	net2 := transport.NewNet(transport.Options{Stepped: true})
	defer net2.Close()
	b2, err := RestoreFile(Config{Network: net2, SuspicionThreshold: 3, BackThreshold: 7}, path)
	if err != nil {
		t.Fatal(err)
	}
	if b2.NumObjects() != b.NumObjects() {
		t.Fatal("file round trip lost objects")
	}
	if _, err := RestoreFile(Config{Network: net2}, filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("restore of missing file accepted")
	}
}

// TestRestoreOverSessionNetworkBumpsIncarnation: on a session-layer network
// (transport.Reliable), a checkpoint records the site's incarnation and
// Restore announces the restart with a strictly larger one, so peers reset
// their link sessions instead of wedging on stale sequence state.
func TestRestoreOverSessionNetworkBumpsIncarnation(t *testing.T) {
	inner := transport.NewNet(transport.Options{})
	rel := transport.NewReliable(inner, transport.ReliableOptions{
		RetransmitInitial: 2 * time.Millisecond,
	})
	t.Cleanup(rel.Close)
	a := New(Config{ID: 1, Network: rel, SuspicionThreshold: 3, BackThreshold: 7})
	b := New(Config{ID: 2, Network: rel, SuspicionThreshold: 3, BackThreshold: 7})

	settle := func() {
		t.Helper()
		if err := rel.AwaitIdle(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := inner.Quiesce(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}

	// One cross-site reference so the checkpoint names site 1 as a peer.
	x := a.NewRootObject()
	y := b.NewObject()
	if err := b.SendRef(1, y); err != nil {
		t.Fatal(err)
	}
	settle()
	if err := a.AddReference(x.Obj, y); err != nil {
		t.Fatal(err)
	}
	a.DropAppRoot(y)
	settle()

	var buf bytes.Buffer
	if err := b.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	rec, err := decodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	old := rel.Incarnation(2)
	if rec.Incarnation != old {
		t.Fatalf("checkpoint recorded incarnation %d, network says %d", rec.Incarnation, old)
	}

	b2, err := Restore(Config{Network: rel, SuspicionThreshold: 3, BackThreshold: 7}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := rel.Incarnation(2); got != old+1 {
		t.Fatalf("post-restore incarnation %d, want %d", got, old+1)
	}

	// The link must come back usable: a post-restart exchange settles with
	// nothing stuck in a session window.
	a.RunLocalTrace()
	b2.RunLocalTrace()
	settle()
	if b2.NumInrefs() == 0 {
		t.Fatal("restored site lost its inref")
	}
}

// TestCrashRecoveryCollectsCycle is the end-to-end story: site 2 crashes
// after checkpointing, comes back from the checkpoint (losing volatile
// state), the protocol heals, and the cross-site garbage cycle is still
// collected while live objects survive.
func TestCrashRecoveryCollectsCycle(t *testing.T) {
	a, b, net, refs := buildPersistPair(t)
	root, live, x, y := refs[0], refs[1], refs[2], refs[3]

	var buf bytes.Buffer
	if err := b.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	// Crash site 2: drop everything in flight to or from it, then bring
	// up the replacement from the checkpoint. Register replaces the old
	// handler on the network, so the old site is effectively dead.
	net.DropMatching(func(e msg.Envelope) bool { return e.To == 2 || e.From == 2 })
	b2, err := Restore(Config{Network: net, SuspicionThreshold: 3, BackThreshold: 7, AutoBackTrace: true}, &buf)
	if err != nil {
		t.Fatal(err)
	}

	// Continue collection rounds on the pair (a, b2).
	for round := 0; round < 25; round++ {
		a.RunLocalTrace()
		net.DeliverAll()
		b2.RunLocalTrace()
		net.DeliverAll()
		if !a.ContainsObject(x.Obj) && !b2.ContainsObject(y.Obj) {
			break
		}
	}

	if a.ContainsObject(x.Obj) || b2.ContainsObject(y.Obj) {
		t.Fatal("cycle not collected after crash recovery")
	}
	if !a.ContainsObject(root.Obj) || !b2.ContainsObject(live.Obj) {
		t.Fatal("live object lost in crash recovery")
	}
}

// TestCheckpointFraming pins the checkpoint file frame: magic + format byte
// ahead of the payload, an unknown format byte rejected, and a bare gob
// stream (the payload without the frame) rejected.
func TestCheckpointFraming(t *testing.T) {
	_, b, _, _ := buildPersistPair(t)
	var buf bytes.Buffer
	if err := b.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	framed := buf.Bytes()
	if !bytes.HasPrefix(framed, checkpointMagic) || framed[len(checkpointMagic)] != checkpointFormatGob {
		t.Fatalf("checkpoint does not start with magic+format: % x", framed[:6])
	}

	// Unknown payload format byte is rejected before the decoder runs.
	bad := append([]byte(nil), framed...)
	bad[len(checkpointMagic)] = 0x7F
	net2 := transport.NewNet(transport.Options{Stepped: true})
	defer net2.Close()
	if _, err := Restore(Config{Network: net2}, bytes.NewReader(bad)); err == nil {
		t.Fatal("restore accepted an unknown checkpoint payload format")
	}

	// A bare gob stream has no frame; both readers reject it.
	bare := framed[len(checkpointMagic)+1:]
	if _, err := Restore(Config{Network: net2}, bytes.NewReader(bare)); err == nil {
		t.Fatal("restore accepted a bare gob checkpoint")
	}
	if _, _, err := DecodeCheckpointAudit(bytes.NewReader(bare)); err == nil {
		t.Fatal("DecodeCheckpointAudit accepted a bare gob checkpoint")
	}
}
