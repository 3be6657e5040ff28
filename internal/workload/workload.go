// Package workload generates the synthetic object graphs the experiment
// harness sweeps: inter-site garbage rings, random cyclic graphs with
// tunable cross-site edge density, and hypertext document webs — the
// paper's motivating example of "large, complex cycles".
//
// A generator produces a Spec, an abstract placement-and-edges description
// that both the real cluster (Build) and the baseline collectors consume,
// so every algorithm in a comparison sees exactly the same graph.
package workload

import (
	"fmt"
	"math/rand"

	"backtrace/internal/cluster"
	"backtrace/internal/ids"
)

// ObjSpec describes one object: which site it lives on and whether it is a
// persistent root.
type ObjSpec struct {
	Site ids.SiteID
	Root bool
}

// Spec is an abstract multi-site object graph.
type Spec struct {
	// Name identifies the workload in experiment output.
	Name string
	// Sites is the number of sites (1..Sites).
	Sites int
	// Objects lists the objects; indices are the node identifiers that
	// Edges refers to.
	Objects []ObjSpec
	// Edges lists directed references as [from, to] object indices.
	Edges [][2]int
}

// Validate checks internal consistency.
func (s *Spec) Validate() error {
	for i, o := range s.Objects {
		if o.Site < 1 || int(o.Site) > s.Sites {
			return fmt.Errorf("workload %s: object %d on invalid site %v", s.Name, i, o.Site)
		}
	}
	for _, e := range s.Edges {
		for _, end := range e {
			if end < 0 || end >= len(s.Objects) {
				return fmt.Errorf("workload %s: edge endpoint %d out of range", s.Name, end)
			}
		}
	}
	return nil
}

// InterSiteEdges counts edges whose endpoints live on different sites —
// the E of the paper's 2E+P message-complexity formula.
func (s *Spec) InterSiteEdges() int {
	n := 0
	for _, e := range s.Edges {
		if s.Objects[e[0]].Site != s.Objects[e[1]].Site {
			n++
		}
	}
	return n
}

// SitesTouched returns the number of distinct sites holding objects — the
// P of the message-complexity formula when the whole spec is one cycle.
func (s *Spec) SitesTouched() int {
	set := make(map[ids.SiteID]struct{})
	for _, o := range s.Objects {
		set[o.Site] = struct{}{}
	}
	return len(set)
}

// Build instantiates the spec on a cluster, returning the created object
// references (indexed like Objects). Cross-site edges go through the full
// reference-passing protocol.
func Build(c *cluster.Cluster, s Spec) ([]ids.Ref, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	refsOut := make([]ids.Ref, len(s.Objects))
	for i, o := range s.Objects {
		st := c.Site(o.Site)
		if st == nil {
			return nil, fmt.Errorf("workload %s: cluster has no site %v", s.Name, o.Site)
		}
		if o.Root {
			refsOut[i] = st.NewRootObject()
		} else {
			refsOut[i] = st.NewObject()
		}
	}
	for _, e := range s.Edges {
		if err := c.Link(refsOut[e[0]], refsOut[e[1]]); err != nil {
			return nil, fmt.Errorf("workload %s: link %d->%d: %w", s.Name, e[0], e[1], err)
		}
	}
	return refsOut, nil
}

// --- generators -----------------------------------------------------------

// Ring builds a garbage cycle of one object per site across n sites: the
// minimal inter-site cycle family the message-complexity experiment
// sweeps.
func Ring(n int) Spec {
	s := Spec{Name: fmt.Sprintf("ring-%d", n), Sites: n}
	for i := 0; i < n; i++ {
		s.Objects = append(s.Objects, ObjSpec{Site: ids.SiteID(i + 1)})
	}
	for i := 0; i < n; i++ {
		s.Edges = append(s.Edges, [2]int{i, (i + 1) % n})
	}
	return s
}

// ParallelPair builds a garbage cycle whose references cross one pair of
// sites k times in parallel: on site 1, h references a_1..a_k and each a_i
// references b_i on site 2; on site 2 every b_i references g, and g
// references h. That is E = k+1 inter-site references, but a back trace
// crosses the site pair once in each direction: the k parallel steps
// share one BackCall.
func ParallelPair(k int) Spec {
	s := Spec{Name: fmt.Sprintf("pair-%d", k), Sites: 2}
	s.Objects = []ObjSpec{{Site: 1}, {Site: 2}} // h, g
	s.Edges = [][2]int{{1, 0}}                  // g → h
	for i := 0; i < k; i++ {
		a, b := len(s.Objects), len(s.Objects)+1
		s.Objects = append(s.Objects, ObjSpec{Site: 1}, ObjSpec{Site: 2})
		s.Edges = append(s.Edges, [2]int{0, a}, [2]int{a, b}, [2]int{b, 1})
	}
	return s
}

// RootedRing is Ring plus a persistent root on site 1 referencing the
// first ring member — a live cycle for safety experiments.
func RootedRing(n int) Spec {
	s := Ring(n)
	s.Name = fmt.Sprintf("rooted-ring-%d", n)
	root := len(s.Objects)
	s.Objects = append(s.Objects, ObjSpec{Site: 1, Root: true})
	s.Edges = append(s.Edges, [2]int{root, 0})
	return s
}

// Chain builds an acyclic chain of one object per site, anchored at a
// persistent root on site 1 when rooted is true.
func Chain(n int, rooted bool) Spec {
	s := Spec{Name: fmt.Sprintf("chain-%d", n), Sites: n}
	for i := 0; i < n; i++ {
		s.Objects = append(s.Objects, ObjSpec{Site: ids.SiteID(i + 1)})
	}
	for i := 0; i+1 < n; i++ {
		s.Edges = append(s.Edges, [2]int{i, i + 1})
	}
	if rooted {
		root := len(s.Objects)
		s.Objects = append(s.Objects, ObjSpec{Site: 1, Root: true})
		s.Edges = append(s.Edges, [2]int{root, 0})
	}
	return s
}

// DenseCycle builds a strongly connected component of k objects per site
// over n sites, with every object referencing its successor and a random
// extra chord set — a worst-case cycle for message complexity (many
// inter-site references).
func DenseCycle(n, perSite int, chords int, seed int64) Spec {
	rng := rand.New(rand.NewSource(seed))
	total := n * perSite
	s := Spec{Name: fmt.Sprintf("dense-%dx%d", n, perSite), Sites: n}
	for i := 0; i < total; i++ {
		s.Objects = append(s.Objects, ObjSpec{Site: ids.SiteID(i%n + 1)})
	}
	for i := 0; i < total; i++ {
		s.Edges = append(s.Edges, [2]int{i, (i + 1) % total})
	}
	for c := 0; c < chords; c++ {
		from := rng.Intn(total)
		to := rng.Intn(total)
		s.Edges = append(s.Edges, [2]int{from, to})
	}
	return s
}

// RandomConfig parameterizes RandomGraph.
type RandomConfig struct {
	Sites   int
	Objects int
	// AvgOut is the mean out-degree; edges pick targets uniformly.
	AvgOut float64
	// RemoteProb is the probability an edge targets another site
	// (objects are clustered, so inter-site references are uncommon —
	// Section 2).
	RemoteProb float64
	// Roots is the number of persistent roots (placed round-robin).
	Roots int
	Seed  int64
}

// RandomGraph builds a clustered random graph: objects are placed
// round-robin on sites; each edge stays site-local with probability
// 1-RemoteProb.
func RandomGraph(cfg RandomConfig) Spec {
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := Spec{
		Name:  fmt.Sprintf("random-%ds-%do", cfg.Sites, cfg.Objects),
		Sites: cfg.Sites,
	}
	bySite := make([][]int, cfg.Sites+1)
	for i := 0; i < cfg.Objects; i++ {
		site := ids.SiteID(i%cfg.Sites + 1)
		s.Objects = append(s.Objects, ObjSpec{Site: site, Root: i < cfg.Roots})
		bySite[site] = append(bySite[site], i)
	}
	nEdges := int(float64(cfg.Objects) * cfg.AvgOut)
	for e := 0; e < nEdges; e++ {
		from := rng.Intn(cfg.Objects)
		var to int
		if rng.Float64() < cfg.RemoteProb {
			to = rng.Intn(cfg.Objects)
		} else {
			local := bySite[s.Objects[from].Site]
			to = local[rng.Intn(len(local))]
		}
		s.Edges = append(s.Edges, [2]int{from, to})
	}
	return s
}

// HypertextConfig parameterizes HypertextWeb.
type HypertextConfig struct {
	Sites int
	// Docs is the number of documents; each is a set of pages with
	// next/prev/contents links forming cycles.
	Docs int
	// PagesPerDoc is the number of pages in each document.
	PagesPerDoc int
	// CrossLinks is the number of random links between documents.
	CrossLinks int
	// LiveFrac is the fraction of documents reachable from the root
	// directory; the rest are orphaned (deleted from the directory) and
	// form distributed garbage cycles.
	LiveFrac float64
	Seed     int64
}

// HypertextWeb models the paper's motivating example: hypertext documents
// whose pages form large, complex cycles spread across sites. Each
// document's pages are distributed round-robin over sites and linked
// next/prev plus back to a per-document table of contents; a root
// directory on site 1 references the table of contents of live documents.
func HypertextWeb(cfg HypertextConfig) Spec {
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := Spec{
		Name:  fmt.Sprintf("hypertext-%dd", cfg.Docs),
		Sites: cfg.Sites,
	}
	dir := 0
	s.Objects = append(s.Objects, ObjSpec{Site: 1, Root: true}) // directory

	tocs := make([]int, cfg.Docs)
	pages := make([][]int, cfg.Docs)
	nextSite := 0
	place := func() ids.SiteID {
		nextSite++
		return ids.SiteID(nextSite%cfg.Sites + 1)
	}
	for d := 0; d < cfg.Docs; d++ {
		toc := len(s.Objects)
		tocs[d] = toc
		s.Objects = append(s.Objects, ObjSpec{Site: place()})
		for p := 0; p < cfg.PagesPerDoc; p++ {
			idx := len(s.Objects)
			s.Objects = append(s.Objects, ObjSpec{Site: place()})
			pages[d] = append(pages[d], idx)
		}
		// TOC references every page; pages link next/prev and back to
		// the TOC — plenty of cycles crossing sites.
		for i, p := range pages[d] {
			s.Edges = append(s.Edges, [2]int{toc, p})
			s.Edges = append(s.Edges, [2]int{p, toc})
			if i+1 < len(pages[d]) {
				s.Edges = append(s.Edges, [2]int{p, pages[d][i+1]})
				s.Edges = append(s.Edges, [2]int{pages[d][i+1], p})
			}
		}
		if rng.Float64() < cfg.LiveFrac {
			s.Edges = append(s.Edges, [2]int{dir, toc})
		}
	}
	for c := 0; c < cfg.CrossLinks; c++ {
		from := rng.Intn(cfg.Docs)
		to := rng.Intn(cfg.Docs)
		fp := pages[from][rng.Intn(len(pages[from]))]
		s.Edges = append(s.Edges, [2]int{fp, tocs[to]})
	}
	return s
}
