// Command transactions demonstrates the client-caching transactional
// mutator layer — the paper's application model (Section 6.1.1): a client
// fetches objects from many sites into a cache, commits transactions whose
// new references flow through the transfer and insert barriers, and the
// collector reclaims whatever the transactions orphan — including
// cross-site cycles.
//
// Run with:
//
//	go run ./examples/transactions
package main

import (
	"fmt"

	"backtrace"
)

func main() {
	c := backtrace.NewCluster(backtrace.ClusterOptions{
		NumSites: 4,
		Site: backtrace.SiteConfig{
			SuspicionThreshold: 3,
			BackThreshold:      7,
			AutoBackTrace:      true,
		},
	})
	defer c.Close()

	client := backtrace.NewTxnClient("editor", backtrace.TxnSites(c))
	client.SetSettle(c.Settle)

	// Transaction 1: create a small document web — a directory (root) on
	// site 1 pointing at two documents whose pages cross sites.
	tx := client.Begin()
	pageA1, _ := tx.Create(2)
	pageA2, _ := tx.Create(3, pageA1)
	tocA, _ := tx.Create(2, pageA1, pageA2)
	pageB1, _ := tx.Create(3)
	pageB2, _ := tx.Create(4, pageB1)
	tocB, _ := tx.Create(3, pageB1, pageB2)
	dir, err := tx.CreateRoot(1, tocA, tocB)
	if err != nil {
		panic(err)
	}
	if err := tx.Commit(); err != nil {
		panic(err)
	}
	fmt.Println("tx1: created directory with documents A and B (pages across sites 2-4)")

	// Transaction 2: make the documents cyclic (pages link back to their
	// tables of contents) — the shape that defeats plain local tracing.
	tx2 := client.Begin()
	for _, link := range []struct {
		page *backtrace.TxnObject
		toc  *backtrace.TxnObject
	}{
		{pageA1, tocA}, {pageA2, tocA}, {pageB1, tocB}, {pageB2, tocB},
	} {
		fields, err := tx2.Read(link.page.Ref())
		if err != nil {
			panic(err)
		}
		if err := tx2.Write(link.page.Ref(), append(fields, link.toc.Ref())); err != nil {
			panic(err)
		}
	}
	if err := tx2.Commit(); err != nil {
		panic(err)
	}
	fmt.Println("tx2: pages now link back to their TOCs — cross-site cycles everywhere")

	// Transaction 3: delete document B from the directory.
	tx3 := client.Begin()
	if _, err := tx3.Read(dir.Ref()); err != nil {
		panic(err)
	}
	if err := tx3.Write(dir.Ref(), []backtrace.Ref{tocA.Ref()}); err != nil {
		panic(err)
	}
	if err := tx3.Commit(); err != nil {
		panic(err)
	}
	fmt.Println("tx3: document B unlinked from the directory")

	// While the client still caches B's pages, they are application
	// roots and must survive.
	c.RunRounds(8)
	if !c.Site(3).ContainsObject(tocB.Ref().Obj) {
		panic("cached document collected while client holds it")
	}
	fmt.Println("document B survives while cached by the client (application roots)")

	// Client disconnects: document B is now a distributed garbage cycle.
	client.Close()
	rounds, collected := c.CollectUntilStable(40)
	fmt.Printf("client closed: collected %d objects in %d rounds\n", collected, rounds)

	if c.Site(3).ContainsObject(tocB.Ref().Obj) {
		panic("orphaned document B not collected")
	}
	if !c.Site(2).ContainsObject(tocA.Ref().Obj) {
		panic("live document A collected")
	}
	fmt.Println("document B (a cross-site cycle) reclaimed; document A intact.")
}
