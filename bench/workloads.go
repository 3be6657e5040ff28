package main

import (
	"fmt"
	"math/rand"

	"backtrace/internal/ids"
)

// plan is an abstract object graph: members with their sites, and directed
// edges between member indices. The same plan feeds the real cluster (through
// the reference-passing protocol), the oracle (what the generator knows),
// and the baseline collectors (as a workload.Spec).
//
// Seeds choose placement and wiring, never amounts: every seed plants the
// same number of objects and edges, so metrics are comparable across seeds.
type plan struct {
	sites []ids.SiteID
	roots map[int]bool // members that are persistent roots
	edges [][2]int32
	// editable lists members the live mutator may add links between
	// (live plans only), grouped by site.
	editable map[ids.SiteID][]int32
}

func (p *plan) add(site ids.SiteID) int32 {
	p.sites = append(p.sites, site)
	return int32(len(p.sites) - 1)
}

func (p *plan) addRoot(site ids.SiteID) int32 {
	i := p.add(site)
	if p.roots == nil {
		p.roots = map[int]bool{}
	}
	p.roots[int(i)] = true
	return i
}

func (p *plan) edge(from, to int32) { p.edges = append(p.edges, [2]int32{from, to}) }

// workloadDef is one workload: its shape, its live graph, the garbage
// structure it keeps planting, and its mutator.
type workloadDef struct {
	name  string
	why   string
	shape string
	// k is the number of planted garbage structures kept outstanding.
	k int
	// live builds the live graph; garbage builds the idx'th structure.
	live    func(rng *rand.Rand) *plan
	garbage func(rng *rand.Rand, idx int) *plan
	// mutRate is the live mutator's pace in ops/s (node) or ops per round
	// (stepped); mutSites are the sites it edits.
	mutRate  int
	mutSites []ids.SiteID
	// checkpointEvery, when positive, checkpoints site 1 every that many
	// rounds inside the window.
	checkpointEvery int
}

// maxStructureAge is the completeness limit: a planted structure not swept
// this many rounds after its last hold was dropped is a failed operation.
const maxStructureAge = 40

// editedSites are the sites the node workloads' mutator edits; sites 3-4
// see only the garbage churn, so a lock-hold change shows as a difference
// between edited and unedited sites.
var editedSites = []ids.SiteID{1, 2}

var workloads = []*workloadDef{
	{
		name:  "ring-churn",
		why:   "tiny heaps, 64 garbage rings of 2-4 sites: codec, session layer, TCP, mailbox, handlers and engine do the work; bypass for tracer changes",
		shape: shapeNode, k: 64,
		live:    func(*rand.Rand) *plan { return flatLive(nodeSites, 1000) },
		garbage: ringPlan,
		mutRate: 1000, mutSites: editedSites,
	},
	{
		name:  "hypertext-edit",
		why:   "large heaps with link edits and checkpoints, 32 orphaned document groups: snapshot, mark, outsets, sweep and the site lock do the work; bypass for wire changes",
		shape: shapeNode, k: 32,
		live:    hypertextLive,
		garbage: docGroupPlan,
		mutRate: 2000, mutSites: editedSites,
		checkpointEvery: 20,
	},
	{
		name:  "actor-mesh",
		why:   "4 quiesced actor groups of 400 actors and ~800 cross-site edges each: few huge cycles, large insets and full batches; same layers as ring-churn, costed per byte and per union",
		shape: shapeNode, k: 4,
		live:    func(*rand.Rand) *plan { return flatLive(nodeSites, 1000) },
		garbage: actorGroupPlan,
		mutRate: 1000, mutSites: editedSites,
	},
	{
		name:  "storm",
		why:   "stepped 8-site hub-and-petals (hub 64, petals 200) with depth-24 live chains in lockstep rounds: engine admission, batching, memo and T2/delta pacing; counts repeat exactly per seed",
		shape: shapeStepped, k: 1,
		live:    stormLive,
		garbage: hubPetalsPlan,
		mutRate: 32, mutSites: []ids.SiteID{1, 2, 3, 4, 5, 6, 7, 8},
	},
}

func findWorkload(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// flatLive is a small live heap: on every site a root directory holding
// perSite-1 leaf objects.
func flatLive(sites, perSite int) *plan {
	p := &plan{editable: map[ids.SiteID][]int32{}}
	for s := 1; s <= sites; s++ {
		site := ids.SiteID(s)
		root := p.addRoot(site)
		for i := 1; i < perSite; i++ {
			leaf := p.add(site)
			p.edge(root, leaf)
			p.editable[site] = append(p.editable[site], leaf)
		}
	}
	return p
}

// Hypertext live graph: per site a root directory of hyperDocs documents,
// each a table of contents over hyperPages pages chained page to page, and
// hyperCites cross-site toc-to-toc citations per document.
const (
	hyperDocs  = 100
	hyperPages = 499
	hyperCites = 5
)

func hypertextLive(rng *rand.Rand) *plan {
	p := &plan{editable: map[ids.SiteID][]int32{}}
	tocs := make([][]int32, nodeSites+1)
	for s := 1; s <= nodeSites; s++ {
		site := ids.SiteID(s)
		dir := p.addRoot(site)
		for d := 0; d < hyperDocs; d++ {
			toc := p.add(site)
			p.edge(dir, toc)
			tocs[s] = append(tocs[s], toc)
			prev := int32(-1)
			for g := 0; g < hyperPages; g++ {
				page := p.add(site)
				p.edge(toc, page)
				if prev >= 0 {
					p.edge(prev, page)
				}
				prev = page
				p.editable[site] = append(p.editable[site], page)
			}
		}
	}
	for s := 1; s <= nodeSites; s++ {
		for _, toc := range tocs[s] {
			for c := 0; c < hyperCites; c++ {
				other := (s-1+1+rng.Intn(nodeSites-1))%nodeSites + 1
				p.edge(toc, tocs[other][rng.Intn(hyperDocs)])
			}
		}
	}
	return p
}

// distinctSites returns n distinct sites out of total, in seeded order.
func distinctSites(rng *rand.Rand, n, total int) []ids.SiteID {
	perm := rng.Perm(total)
	out := make([]ids.SiteID, n)
	for i := range out {
		out[i] = ids.SiteID(perm[i] + 1)
	}
	return out
}

// ringPlan is a garbage ring of 2, 3 or 4 sites, one object per site. The
// size cycles with idx so the mix is identical for every seed.
func ringPlan(rng *rand.Rand, idx int) *plan {
	n := 2 + idx%3
	p := &plan{}
	for _, s := range distinctSites(rng, n, nodeSites) {
		p.add(s)
	}
	for i := 0; i < n; i++ {
		p.edge(int32(i), int32((i+1)%n))
	}
	return p
}

// docGroupPlan is an orphaned document group: 2 or 3 documents on different
// sites, about 100 objects in all, each document a toc with pages pointing
// back at it, and each document's last page citing the next document's toc.
// Two groups in three have 3 documents, so the reported latency quantiles
// (p50, p75) both fall inside that population instead of on the boundary
// between the two.
func docGroupPlan(rng *rand.Rand, idx int) *plan {
	docs := 3
	if idx%3 == 0 {
		docs = 2
	}
	pages := 100/docs - 1
	p := &plan{}
	tocs := make([]int32, docs)
	last := make([]int32, docs)
	for d, s := range distinctSites(rng, docs, nodeSites) {
		tocs[d] = p.add(s)
		for g := 0; g < pages; g++ {
			page := p.add(s)
			p.edge(tocs[d], page)
			p.edge(page, tocs[d])
			last[d] = page
		}
	}
	for d := 0; d < docs; d++ {
		p.edge(last[d], tocs[(d+1)%docs])
	}
	return p
}

// Actor group: actorsPerSite actors on each of the four sites, one ring
// through all of them (every ring edge crosses sites) plus as many random
// cross-site acquaintance chords: one strongly connected component.
const actorsPerSite = 100

func actorGroupPlan(rng *rand.Rand, _ int) *plan {
	total := actorsPerSite * nodeSites
	off := rng.Intn(nodeSites)
	p := &plan{}
	for i := 0; i < total; i++ {
		p.add(ids.SiteID((i+off)%nodeSites + 1))
	}
	for i := 0; i < total; i++ {
		p.edge(int32(i), int32((i+1)%total))
	}
	for c := 0; c < total; {
		a, b := rng.Intn(total), rng.Intn(total)
		if p.sites[a] == p.sites[b] {
			continue
		}
		p.edge(int32(a), int32(b))
		c++
	}
	return p
}

// Storm structure (experiment C18): a garbage hub chain strung across every
// site and petals cycles that each run through the whole hub.
const (
	stormHub    = 64
	stormPetals = 200
	stormChains = 4
	stormDepth  = 24
)

func hubPetalsPlan(rng *rand.Rand, _ int) *plan {
	off := rng.Intn(steppedSites)
	p := &plan{}
	for i := 0; i < stormHub; i++ {
		p.add(ids.SiteID((i+off)%steppedSites + 1))
	}
	for i := 0; i+1 < stormHub; i++ {
		p.edge(int32(i), int32(i+1))
	}
	tail := int32(stormHub - 1)
	for k := 0; k < stormPetals; k++ {
		// Petals sit anywhere but the tail's site, so tail→petal crosses.
		s := (int(p.sites[tail])-1+1+rng.Intn(steppedSites-1))%steppedSites + 1
		petal := p.add(ids.SiteID(s))
		p.edge(tail, petal)
		p.edge(petal, 0)
	}
	return p
}

// stormLive is stormChains rooted chains of stormDepth cross-site hops:
// deep enough that their tails become suspects that back traces prove Live.
func stormLive(rng *rand.Rand) *plan {
	p := &plan{editable: map[ids.SiteID][]int32{}}
	for c := 0; c < stormChains; c++ {
		s := rng.Intn(steppedSites)
		prev := p.addRoot(ids.SiteID(s + 1))
		for d := 0; d < stormDepth; d++ {
			s = (s + 1 + rng.Intn(steppedSites-1)) % steppedSites
			obj := p.add(ids.SiteID(s + 1))
			p.edge(prev, obj)
			prev = obj
		}
	}
	// A few editable leaves per site give the inline mutator something to
	// edit without touching the chains.
	for s := 1; s <= steppedSites; s++ {
		site := ids.SiteID(s)
		root := p.addRoot(site)
		for i := 0; i < 16; i++ {
			leaf := p.add(site)
			p.edge(root, leaf)
			p.editable[site] = append(p.editable[site], leaf)
		}
	}
	return p
}
