// Package datagen generates the synthetic datasets that stand in for the
// paper's SNAP/Twitter graphs (Table 8).
//
// The module is offline, so the six public graphs cannot be downloaded.
// Instead each generator controls exactly the structural axes the paper says
// drive query-vertex-ordering effects (Section 3.2, Section 8.1.2):
//
//   - forward/backward adjacency-list size skew (degree distributions),
//   - average clustering coefficient (cyclicity: triangle/clique density),
//   - size.
//
// Social graphs come from directed preferential attachment with triangle
// closure; web graphs from a copying model with heavy in-degree skew;
// product co-purchase graphs from a community lattice with rewiring. The
// named constructors (Amazon, Epinions, ...) fix seeds and scaled-down sizes
// so experiments are reproducible; Scale multiplies the default sizes.
package datagen

import (
	"math/rand"

	"graphflow/internal/graph"
)

// SocialConfig parameterises the preferential-attachment generator.
type SocialConfig struct {
	N       int     // number of vertices
	MPerV   int     // edges added per new vertex
	Closure float64 // probability an edge closes a triangle (clustering knob)
	// Reciprocal is the probability a new edge also gets its reverse,
	// controlling forward/backward symmetry.
	Reciprocal float64
	Seed       int64
}

// Social generates a directed social-network-like graph: heavy-tailed in-
// and out-degrees, tunable clustering. With high Closure it resembles
// Epinions/LiveJournal in the properties the paper's experiments exercise.
func Social(cfg SocialConfig) *graph.Graph {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.N < 3 {
		cfg.N = 3
	}
	if cfg.MPerV < 1 {
		cfg.MPerV = 1
	}
	b := graph.NewBuilder(cfg.N)
	// Seed triangle.
	b.AddEdge(0, 1, 0)
	b.AddEdge(1, 2, 0)
	b.AddEdge(0, 2, 0)
	// ends holds one entry per edge endpoint for preferential attachment.
	ends := []graph.VertexID{0, 1, 1, 2, 0, 2}
	// adjacency for closure: out-neighbour sample lists.
	out := make([][]graph.VertexID, cfg.N)
	out[0] = []graph.VertexID{1, 2}
	out[1] = []graph.VertexID{2}

	addEdge := func(s, d graph.VertexID) {
		if s == d {
			return
		}
		b.AddEdge(s, d, 0)
		ends = append(ends, s, d)
		out[s] = append(out[s], d)
		if cfg.Reciprocal > 0 && rng.Float64() < cfg.Reciprocal {
			b.AddEdge(d, s, 0)
			ends = append(ends, d, s)
			out[d] = append(out[d], s)
		}
	}

	for v := 3; v < cfg.N; v++ {
		src := graph.VertexID(v)
		for e := 0; e < cfg.MPerV; e++ {
			var dst graph.VertexID
			if e > 0 && rng.Float64() < cfg.Closure && len(out[src]) > 0 {
				// Triangle closure: link to a neighbour of an existing
				// neighbour, creating a directed triangle.
				mid := out[src][rng.Intn(len(out[src]))]
				if len(out[mid]) == 0 {
					dst = ends[rng.Intn(len(ends))]
				} else {
					dst = out[mid][rng.Intn(len(out[mid]))]
				}
			} else {
				// Preferential attachment: endpoints of random edges.
				dst = ends[rng.Intn(len(ends))]
			}
			if dst == src {
				continue
			}
			// Randomise orientation slightly so both directions are skewed.
			if rng.Float64() < 0.8 {
				addEdge(src, dst)
			} else {
				addEdge(dst, src)
			}
		}
	}
	return b.MustBuild()
}

// WebConfig parameterises the copying-model web-graph generator.
type WebConfig struct {
	N      int
	OutDeg int     // out-links per new page
	Copy   float64 // probability of copying the prototype's link (skew knob)
	Seed   int64
}

// Web generates a web-like graph using the classic copying model: each new
// page copies a prototype page's out-links with probability Copy, otherwise
// links uniformly. This yields the heavy in-degree skew and large hub
// backward lists characteristic of BerkStan/Google, which is what makes
// adjacency-list *direction* choices matter (paper Section 3.2.1).
func Web(cfg WebConfig) *graph.Graph {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.N < 3 {
		cfg.N = 3
	}
	if cfg.OutDeg < 1 {
		cfg.OutDeg = 1
	}
	b := graph.NewBuilder(cfg.N)
	out := make([][]graph.VertexID, cfg.N)
	// Seed path.
	b.AddEdge(0, 1, 0)
	b.AddEdge(1, 2, 0)
	b.AddEdge(2, 0, 0)
	out[0] = []graph.VertexID{1}
	out[1] = []graph.VertexID{2}
	out[2] = []graph.VertexID{0}

	for v := 3; v < cfg.N; v++ {
		src := graph.VertexID(v)
		proto := graph.VertexID(rng.Intn(v))
		for e := 0; e < cfg.OutDeg; e++ {
			var dst graph.VertexID
			if rng.Float64() < cfg.Copy && e < len(out[proto]) {
				dst = out[proto][e]
			} else {
				dst = graph.VertexID(rng.Intn(v))
			}
			if dst == src {
				continue
			}
			b.AddEdge(src, dst, 0)
			out[src] = append(out[src], dst)
		}
	}
	return b.MustBuild()
}

// CoPurchaseConfig parameterises the product co-purchase generator.
type CoPurchaseConfig struct {
	N      int
	K      int     // lattice half-width: products link to the next K products
	Rewire float64 // probability an edge is rewired to a random product
	Seed   int64
}

// CoPurchase generates an Amazon-like co-purchase graph: a directed ring
// lattice (products in the same category link to each other) with random
// rewiring. Degrees are near-uniform and clustering moderate, the regime in
// which the paper's Amazon numbers sit.
func CoPurchase(cfg CoPurchaseConfig) *graph.Graph {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.N < 4 {
		cfg.N = 4
	}
	if cfg.K < 1 {
		cfg.K = 1
	}
	b := graph.NewBuilder(cfg.N)
	for v := 0; v < cfg.N; v++ {
		for k := 1; k <= cfg.K; k++ {
			dst := (v + k) % cfg.N
			if rng.Float64() < cfg.Rewire {
				dst = rng.Intn(cfg.N)
			}
			if dst == v {
				continue
			}
			b.AddEdge(graph.VertexID(v), graph.VertexID(dst), 0)
			// Co-purchase relationships are often reciprocal.
			if rng.Float64() < 0.4 {
				b.AddEdge(graph.VertexID(dst), graph.VertexID(v), 0)
			}
		}
	}
	return b.MustBuild()
}

// RunShapesConfig parameterises the run-shaped test graph.
type RunShapesConfig struct {
	Core      int // vertices 0..Core-1, densely connected
	Periphery int // vertices Core+1.. hanging off the core
	// P and P1 are the probabilities of a core pair being an edge under
	// edge label 0 and, besides it, under edge label 1.
	P, P1 float64
	// HubEvery makes every HubEvery-th periphery vertex point at the hub
	// and at the next periphery vertex as well.
	HubEvery int
	Seed     int64
}

// RunShapes generates a graph whose scan order meets every shape of
// prefix run a vectorized E/I stage can look ahead for — what the
// differential tests of internal/exec and internal/difftest run on, not a
// dataset: a dense core, a hub (vertex Core) pointing at every vertex —
// one run of Core+Periphery rows — and a periphery whose vertices have
// two out-neighbours and one in turn (runs of two rows and of one,
// alternating), every HubEvery-th also the hub in the middle of its list
// (a partner past the pin cut-off inside a run) with a neighbour behind
// it. Core vertices point back into the periphery, so the core's runs are
// medium-sized and triangles close through all three parts; one edge
// enters the hub besides the periphery's, so patterns stay countable by a
// backtracking reference matcher.
func RunShapes(cfg RunShapesConfig) *graph.Graph {
	rng := rand.New(rand.NewSource(cfg.Seed))
	core, hub := cfg.Core, graph.VertexID(cfg.Core)
	b := graph.NewBuilder(core + 1 + cfg.Periphery)
	for u := 0; u < core; u++ {
		for v := 0; v < core; v++ {
			if u == v {
				continue
			}
			if rng.Float64() < cfg.P {
				b.AddEdge(graph.VertexID(u), graph.VertexID(v), 0)
			}
			if cfg.P1 > 0 && rng.Float64() < cfg.P1 {
				b.AddEdge(graph.VertexID(u), graph.VertexID(v), 1)
			}
		}
		b.AddEdge(hub, graph.VertexID(u), 0)
	}
	b.AddEdge(0, hub, 0)
	for i := 0; i < cfg.Periphery; i++ {
		p := hub + 1 + graph.VertexID(i)
		b.AddEdge(hub, p, 0)
		b.AddEdge(p, graph.VertexID(i%core), 0)
		if i%2 == 0 {
			b.AddEdge(p, graph.VertexID((i*7+3)%core), 0)
		}
		if i%cfg.HubEvery == 0 {
			b.AddEdge(p, hub, 0)
			b.AddEdge(p, hub+1+graph.VertexID((i+1)%cfg.Periphery), 0)
		}
		if i%3 == 0 {
			b.AddEdge(graph.VertexID(i%core), p, 0)
		}
	}
	return b.MustBuild()
}

// Relabel returns a copy of g whose vertex labels are drawn uniformly from
// [0, numVertexLabels) and edge labels uniformly from [0, numEdgeLabels).
// This implements the paper's QJi workloads (Section 8.1.3): "we randomly
// generate a label l on each edge, where l in {l1..li}". Passing 1 for
// either count leaves that dimension unlabeled (all zero).
func Relabel(g *graph.Graph, numVertexLabels, numEdgeLabels int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(g.NumVertices())
	if numVertexLabels > 1 {
		for v := 0; v < g.NumVertices(); v++ {
			b.SetVertexLabel(graph.VertexID(v), graph.Label(rng.Intn(numVertexLabels)))
		}
	}
	g.Edges(func(src, dst graph.VertexID, _ graph.Label) bool {
		l := graph.Label(0)
		if numEdgeLabels > 1 {
			l = graph.Label(rng.Intn(numEdgeLabels))
		}
		b.AddEdge(src, dst, l)
		return true
	})
	return b.MustBuild()
}
