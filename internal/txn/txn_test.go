package txn

import (
	"errors"
	"testing"

	"backtrace/internal/cluster"
	"backtrace/internal/ids"
	"backtrace/internal/site"
)

// harness couples a cluster with a client.
type harness struct {
	c  *cluster.Cluster
	cl *Client
}

func newHarness(t *testing.T, sites int) *harness {
	t.Helper()
	c := cluster.New(cluster.Options{
		NumSites: sites,
		Site: site.Config{
			SuspicionThreshold: 3,
			BackThreshold:      7,
			ThresholdBump:      4,
			AutoBackTrace:      true,
		},
	})
	t.Cleanup(c.Close)
	m := make(map[ids.SiteID]*site.Site, sites)
	for _, s := range c.Sites() {
		m[s.ID()] = s
	}
	cl := NewClient("test", m)
	cl.SetSettle(c.Settle)
	return &harness{c: c, cl: cl}
}

func TestCreateAndCommit(t *testing.T) {
	h := newHarness(t, 2)
	tx := h.cl.Begin()
	dir, err := tx.CreateRoot(1)
	if err != nil {
		t.Fatal(err)
	}
	child, err := tx.Create(2)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild dir with a reference to child: created objects may
	// reference each other within the transaction.
	dir2, err := tx.CreateRoot(1, child)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	_ = dir
	if dir2.Ref().IsZero() || child.Ref().IsZero() {
		t.Fatal("created objects missing refs after commit")
	}
	// The cross-site reference dir2 -> child must exist with full
	// protocol state.
	fields, err := h.c.Site(1).Fields(dir2.Ref().Obj)
	if err != nil || len(fields) != 1 || fields[0] != child.Ref() {
		t.Fatalf("dir2 fields = %v, %v", fields, err)
	}
	if got := h.c.InvariantViolations(); len(got) != 0 {
		t.Fatalf("invariants: %v", got)
	}
	// While cached, nothing is collected even without other roots.
	h.c.RunRounds(5)
	if !h.c.Site(2).ContainsObject(child.Ref().Obj) {
		t.Fatal("cached object collected")
	}
}

func TestReadWriteCycleThenOrphan(t *testing.T) {
	h := newHarness(t, 3)

	// Transaction 1: build root -> a(site2) and a cross-site cycle
	// a <-> b(site3) hanging off the root.
	tx := h.cl.Begin()
	a, err := tx.Create(2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tx.Create(3, a)
	if err != nil {
		t.Fatal(err)
	}
	root, err := tx.CreateRoot(1, a)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Transaction 2: read a, add a -> b (completing the cycle).
	tx2 := h.cl.Begin()
	fields, err := tx2.Read(a.Ref())
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Write(a.Ref(), append(fields, b.Ref())); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := h.c.InvariantViolations(); len(got) != 0 {
		t.Fatalf("invariants after tx2: %v", got)
	}

	// Transaction 3: orphan the cycle (root drops a).
	tx3 := h.cl.Begin()
	if _, err := tx3.Read(root.Ref()); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Write(root.Ref(), nil); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}

	// The client still caches a and b: the cycle must survive.
	h.c.RunRounds(12)
	if !h.c.Site(2).ContainsObject(a.Ref().Obj) || !h.c.Site(3).ContainsObject(b.Ref().Obj) {
		t.Fatal("client-cached cycle collected")
	}

	// Client closes: holds released; the cycle is garbage and must go.
	h.cl.Close()
	rounds, collected := h.c.CollectUntilStable(40)
	t.Logf("collected %d in %d rounds after client close", collected, rounds)
	if h.c.Site(2).ContainsObject(a.Ref().Obj) || h.c.Site(3).ContainsObject(b.Ref().Obj) {
		t.Fatal("orphaned cycle not collected after client closed")
	}
	if !h.c.Site(1).ContainsObject(root.Ref().Obj) {
		t.Fatal("root collected")
	}
}

func TestWriteRequiresRead(t *testing.T) {
	h := newHarness(t, 1)
	tx := h.cl.Begin()
	obj, err := tx.Create(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := h.cl.Begin()
	if err := tx2.Write(obj.Ref(), nil); err == nil {
		t.Fatal("write without read accepted (read-write log discipline)")
	}
}

func TestAbortDiscardsBuffers(t *testing.T) {
	h := newHarness(t, 2)
	tx := h.cl.Begin()
	root, err := tx.CreateRoot(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2 := h.cl.Begin()
	if _, err := tx2.Read(root.Ref()); err != nil {
		t.Fatal(err)
	}
	other, err := tx2.Create(2)
	if err != nil {
		t.Fatal(err)
	}
	_ = other
	if err := tx2.Write(root.Ref(), []ids.Ref{ids.MakeRef(1, 999)}); err != nil {
		t.Fatal(err)
	}
	tx2.Abort()
	if err := tx2.Commit(); err == nil {
		t.Fatal("commit after abort accepted")
	}
	fields, err := h.c.Site(1).Fields(root.Ref().Obj)
	if err != nil || len(fields) != 0 {
		t.Fatalf("aborted write applied: %v", fields)
	}
}

func TestOperationsAfterFinishRejected(t *testing.T) {
	h := newHarness(t, 1)
	tx := h.cl.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Read(ids.MakeRef(1, 1)); err == nil {
		t.Error("read after commit accepted")
	}
	if _, err := tx.Create(1); err == nil {
		t.Error("create after commit accepted")
	}
	if err := tx.Commit(); err == nil {
		t.Error("double commit accepted")
	}
}

func TestCreateRejectsBadFieldType(t *testing.T) {
	h := newHarness(t, 1)
	tx := h.cl.Begin()
	if _, err := tx.Create(1, 42); err == nil {
		t.Fatal("bad field type accepted")
	}
}

func TestStoreUnheldRemoteRefRejected(t *testing.T) {
	h := newHarness(t, 2)
	tx := h.cl.Begin()
	root, err := tx.CreateRoot(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	hidden := h.c.Site(2).NewObject() // exists but the client never saw it

	tx2 := h.cl.Begin()
	if _, err := tx2.Read(root.Ref()); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Write(root.Ref(), []ids.Ref{hidden}); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err == nil {
		t.Fatal("commit stored a reference the client never held")
	}
}

func TestFetchEvict(t *testing.T) {
	h := newHarness(t, 2)
	obj := h.c.Site(2).NewObject()
	if err := h.cl.Fetch(obj); err != nil {
		t.Fatal(err)
	}
	if !h.cl.Cached(obj) {
		t.Fatal("not cached after fetch")
	}
	// Cached: survives collection despite no roots.
	h.c.RunRounds(4)
	if !h.c.Site(2).ContainsObject(obj.Obj) {
		t.Fatal("cached object collected")
	}
	h.cl.Evict(obj)
	if h.cl.Cached(obj) {
		t.Fatal("still cached after evict")
	}
	h.c.RunRounds(3)
	if h.c.Site(2).ContainsObject(obj.Obj) {
		t.Fatal("evicted garbage object not collected")
	}
	if err := h.cl.Fetch(ids.MakeRef(2, 9999)); err == nil {
		t.Fatal("fetch of missing object accepted")
	}
	if err := h.cl.Fetch(ids.MakeRef(9, 1)); err == nil {
		t.Fatal("fetch from unknown site accepted")
	}
}

func TestErrTransferPendingResolve(t *testing.T) {
	// Without a settle hook, a commit needing a transfer reports
	// ErrTransferPending; settling and resolving completes the write.
	h := newHarness(t, 2)
	h.cl.settle = nil

	tx := h.cl.Begin()
	root, err := tx.CreateRoot(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	obj := h.c.Site(2).NewObject()
	if err := h.cl.Fetch(obj); err != nil {
		t.Fatal(err)
	}

	tx2 := h.cl.Begin()
	if _, err := tx2.Read(root.Ref()); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Write(root.Ref(), []ids.Ref{obj}); err != nil {
		t.Fatal(err)
	}
	err = tx2.Commit()
	var pending *ErrTransferPending
	if !errors.As(err, &pending) {
		t.Fatalf("commit error = %v, want ErrTransferPending", err)
	}
	h.c.Settle()
	if err := pending.Resolve(h.cl); err != nil {
		t.Fatal(err)
	}
	fields, err := h.c.Site(1).Fields(root.Ref().Obj)
	if err != nil || len(fields) != 1 || fields[0] != obj {
		t.Fatalf("fields after resolve = %v, %v", fields, err)
	}
}

// TestTwoClientsShareObjects: two clients hold overlapping cache contents;
// an object stays alive while EITHER client caches it, and dies only when
// both release it.
func TestTwoClientsShareObjects(t *testing.T) {
	h := newHarness(t, 2)
	cl2 := NewClient("second", h.cl.sites)
	cl2.SetSettle(h.c.Settle)

	obj := h.c.Site(2).NewObject()
	if err := h.cl.Fetch(obj); err != nil {
		t.Fatal(err)
	}
	if err := cl2.Fetch(obj); err != nil {
		t.Fatal(err)
	}

	h.cl.Evict(obj)
	h.c.RunRounds(4)
	if !h.c.Site(2).ContainsObject(obj.Obj) {
		t.Fatal("object collected while second client still caches it")
	}
	cl2.Evict(obj)
	h.c.RunRounds(3)
	if h.c.Site(2).ContainsObject(obj.Obj) {
		t.Fatal("object survived after both clients released it")
	}
}

// TestTwoClientsInterleavedCommits: clients interleave transactions over
// shared objects; the final structure reflects both commits and the
// collector stays consistent.
func TestTwoClientsInterleavedCommits(t *testing.T) {
	h := newHarness(t, 3)
	cl2 := NewClient("second", h.cl.sites)
	cl2.SetSettle(h.c.Settle)

	tx := h.cl.Begin()
	root, err := tx.CreateRoot(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Client 2 commits a child under root.
	tx2 := cl2.Begin()
	cur2, err := tx2.Read(root.Ref())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := tx2.Create(2)
	if err != nil {
		t.Fatal(err)
	}
	args := make([]interface{}, 0, len(cur2)+1)
	for _, f := range cur2 {
		args = append(args, f)
	}
	if err := tx2.WriteMixed(root.Ref(), append(args, c2)...); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}

	// Client 1, with its own transaction, appends another child created
	// in the SAME transaction (WriteMixed resolves it at commit). Its
	// cached copy of root is stale (caches are snapshots, not coherent);
	// evicting refreshes it.
	h.cl.Evict(root.Ref())
	tx3 := h.cl.Begin()
	cur3, err := tx3.Read(root.Ref())
	if err != nil {
		t.Fatal(err)
	}
	if len(cur3) != 1 || cur3[0] != c2.Ref() {
		t.Fatalf("client 1 read stale root fields: %v", cur3)
	}
	c3, err := tx3.Create(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx3.WriteMixed(root.Ref(), cur3[0], c3); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
	if fields, err := h.c.Site(1).Fields(root.Ref().Obj); err != nil || len(fields) != 2 {
		t.Fatalf("root fields = %v, %v; want both children", fields, err)
	}

	h.cl.Close()
	cl2.Close()
	h.c.CollectUntilStable(40)
	if got := h.c.InvariantViolations(); len(got) != 0 {
		t.Fatalf("invariants: %v", got)
	}
	live := h.c.GlobalLive()
	for _, r := range []ids.Ref{root.Ref(), c2.Ref(), c3.Ref()} {
		if _, ok := live[r]; !ok {
			t.Fatalf("%v not live", r)
		}
	}
}

// TestTransactionalHypertextLifecycle models the paper's motivating story
// through the transactional API: a client builds hypertext documents
// (cyclic page webs across sites), later unlinks one from the directory,
// and the collector reclaims exactly the orphaned document.
func TestTransactionalHypertextLifecycle(t *testing.T) {
	h := newHarness(t, 4)

	tx := h.cl.Begin()
	// Document A: toc + 3 pages in a cycle across sites 2-4.
	pA := make([]*NewObject, 3)
	for i := range pA {
		var err error
		pA[i], err = tx.Create(ids.SiteID(2 + i))
		if err != nil {
			t.Fatal(err)
		}
	}
	tocA, err := tx.Create(2, pA[0], pA[1], pA[2])
	if err != nil {
		t.Fatal(err)
	}
	// Document B: same shape.
	pB := make([]*NewObject, 3)
	for i := range pB {
		var err error
		pB[i], err = tx.Create(ids.SiteID(2 + i))
		if err != nil {
			t.Fatal(err)
		}
	}
	tocB, err := tx.Create(3, pB[0], pB[1], pB[2])
	if err != nil {
		t.Fatal(err)
	}
	dir, err := tx.CreateRoot(1, tocA, tocB)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Pages link back to their TOCs (cycles) in a second transaction.
	tx2 := h.cl.Begin()
	for _, pg := range append(append([]*NewObject{}, pA...), pB...) {
		toc := tocA
		for _, q := range pB {
			if q == pg {
				toc = tocB
			}
		}
		fields, err := tx2.Read(pg.Ref())
		if err != nil {
			t.Fatal(err)
		}
		if err := tx2.Write(pg.Ref(), append(fields, toc.Ref())); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}

	// Unlink document B from the directory and release the client.
	tx3 := h.cl.Begin()
	if _, err := tx3.Read(dir.Ref()); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Write(dir.Ref(), []ids.Ref{tocA.Ref()}); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
	h.cl.Close()

	rounds, collected := h.c.CollectUntilStable(50)
	t.Logf("orphaned document: %d objects collected in %d rounds", collected, rounds)
	if collected != 4 {
		t.Fatalf("collected %d, want 4 (tocB + 3 pages)", collected)
	}
	if !h.c.Site(2).ContainsObject(tocA.Ref().Obj) {
		t.Fatal("live document collected")
	}
	for _, pg := range pA {
		if !h.c.Site(pg.Ref().Site).ContainsObject(pg.Ref().Obj) {
			t.Fatal("live page collected")
		}
	}
	if got := h.c.InvariantViolations(); len(got) != 0 {
		t.Fatalf("invariants: %v", got)
	}
}
