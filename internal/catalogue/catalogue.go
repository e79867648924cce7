// Package catalogue implements the subgraph catalogue of Section 5: the
// statistics store the optimizer uses to estimate i-cost, hash-join cost and
// intermediate-result cardinalities.
//
// Each entry is keyed by (Q_{k-1}, A, a_k^{l_k}): a small subquery, a set of
// adjacency-list descriptors extending it by one query vertex, and the new
// vertex's label. The entry stores the average sizes of the intersected
// lists (the |A| column of Table 7) and the average number of extensions µ
// (the selectivity column). Entries are built by sampling: z random edges
// are scanned and extended through chains of E/I operators covering every
// pattern of at most H vertices (Section 5.1).
package catalogue

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"graphflow/internal/graph"
	"graphflow/internal/query"
)

// targetMarker is OR-ed into the extension target's vertex label inside
// entry keys, so canonicalization distinguishes the new vertex from the
// base subquery's vertices. Real labels must stay below it.
const targetMarker graph.Label = 0x4000

// Config controls catalogue construction.
type Config struct {
	// H is the maximum number of vertices of a base subquery; entries
	// extend up-to-H-vertex subgraphs to (H+1)-vertex subgraphs. Default 3.
	H int
	// Z is the number of edges sampled uniformly at random by the SCAN of
	// each sampling plan. Default 1000.
	Z int
	// MaxInstances caps the partial matches carried per sampling step, to
	// bound construction time on dense graphs. Default 1000.
	MaxInstances int
	Seed         int64
}

func (c Config) withDefaults() Config {
	if c.H <= 0 {
		c.H = 3
	}
	if c.Z <= 0 {
		c.Z = 1000
	}
	if c.MaxInstances <= 0 {
		c.MaxInstances = 1000
	}
	return c
}

// Entry is one catalogue row: averages over the sampled instances of its
// key's base subquery.
type Entry struct {
	// ListSizes are the average sizes of the descriptor lists, in canonical
	// descriptor order.
	ListSizes []float64 `json:"lists"`
	// Mu is the average number of extensions per base instance.
	Mu float64 `json:"mu"`
	// Samples is the number of base instances measured.
	Samples int `json:"samples"`
}

// Catalogue is the complete statistics store for one graph.
type Catalogue struct {
	Cfg     Config            `json:"config"`
	Entries map[string]*Entry `json:"entries"`

	// Exact base statistics, computed in one pass over the graph.
	NumVertices int              `json:"numVertices"`
	EdgeCount   map[string]int64 `json:"edgeCount"`   // "el/sl/dl" -> count
	FwdTotal    map[string]int64 `json:"fwdTotal"`    // "el/nl" -> total fwd partition size
	BwdTotal    map[string]int64 `json:"bwdTotal"`    // "el/nl" -> total bwd partition size
	VertexCount map[string]int64 `json:"vertexCount"` // "vl" -> count
}

func edgeCountKey(el, sl, dl graph.Label) string { return fmt.Sprintf("%d/%d/%d", el, sl, dl) }
func listKey(el, nl graph.Label) string          { return fmt.Sprintf("%d/%d", el, nl) }
func vertexKey(vl graph.Label) string            { return fmt.Sprintf("%d", vl) }

// scanBaseStatistics fills the exact base statistics in one pass over
// g's vertices and one over its edges. The scans accumulate under
// struct keys — the label alphabets are tiny next to the edge count —
// and the string-keyed maps of the JSON format are rendered once at
// the end, instead of formatting three keys per edge.
func (c *Catalogue) scanBaseStatistics(g graph.View) {
	type edgeLabels struct{ el, sl, dl graph.Label }
	vertices := map[graph.Label]int64{}
	edges := map[edgeLabels]int64{}
	for v := 0; v < g.NumVertices(); v++ {
		vertices[g.VertexLabel(graph.VertexID(v))]++
	}
	g.Edges(func(src, dst graph.VertexID, el graph.Label) bool {
		edges[edgeLabels{el, g.VertexLabel(src), g.VertexLabel(dst)}]++
		return true
	})
	for vl, n := range vertices {
		c.VertexCount[vertexKey(vl)] = n
	}
	for k, n := range edges {
		c.EdgeCount[edgeCountKey(k.el, k.sl, k.dl)] = n
		c.FwdTotal[listKey(k.el, k.dl)] += n
		c.BwdTotal[listKey(k.el, k.sl)] += n
	}
}

// ScanCount returns the exact number of edges matching the given labels —
// the selectivity µ(l_e) used to seed 2-vertex subqueries in Algorithm 1.
func (c *Catalogue) ScanCount(el, srcLabel, dstLabel graph.Label) float64 {
	return float64(c.EdgeCount[edgeCountKey(el, srcLabel, dstLabel)])
}

// VertexCountByLabel returns the exact number of vertices carrying the
// label; used as the cardinality of single-query-vertex prefixes when the
// optimizer reasons about intersection-cache reuse across scan tuples
// grouped by source vertex.
func (c *Catalogue) VertexCountByLabel(vl graph.Label) float64 {
	return float64(c.VertexCount[vertexKey(vl)])
}

// DefaultListSize returns the graph-wide average adjacency-partition size
// for (dir, edge label, neighbour label): the fallback when an entry is
// missing.
func (c *Catalogue) DefaultListSize(dir graph.Direction, el, nl graph.Label) float64 {
	if c.NumVertices == 0 {
		return 0
	}
	var total int64
	if dir == graph.Forward {
		total = c.FwdTotal[listKey(el, nl)]
	} else {
		total = c.BwdTotal[listKey(el, nl)]
	}
	return float64(total) / float64(c.NumVertices)
}

// Build constructs the catalogue for g — any graph View, so a live
// snapshot is sampled without materialising a CSR.
func Build(g graph.View, cfg Config) *Catalogue {
	cfg = cfg.withDefaults()
	c := &Catalogue{
		Cfg:         cfg,
		Entries:     map[string]*Entry{},
		NumVertices: g.NumVertices(),
		EdgeCount:   map[string]int64{},
		FwdTotal:    map[string]int64{},
		BwdTotal:    map[string]int64{},
		VertexCount: map[string]int64{},
	}
	c.scanBaseStatistics(g)

	b := &builder{g: g, c: c, rng: rand.New(rand.NewSource(cfg.Seed)), visited: map[string]bool{}}
	b.run()
	b.finalize()
	return c
}

// Save writes the catalogue as JSON.
func (c *Catalogue) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(c)
}

// Load reads a catalogue written by Save.
func Load(r io.Reader) (*Catalogue, error) {
	var c Catalogue
	if err := json.NewDecoder(r).Decode(&c); err != nil {
		return nil, err
	}
	if c.Entries == nil {
		c.Entries = map[string]*Entry{}
	}
	if c.VertexCount == nil {
		c.VertexCount = map[string]int64{}
	}
	return &c, nil
}

// Len returns the number of extension entries.
func (c *Catalogue) Len() int { return len(c.Entries) }

// Extension describes extending Base by one new query vertex. Edges
// reference Base's vertex indices plus Base.NumVertices() for the target.
type Extension struct {
	Base        *query.Graph
	Edges       []query.Edge
	TargetLabel graph.Label
}

// Key returns the canonical entry key and, for each input edge, its rank in
// the canonical descriptor order (so callers can align ListSizes with their
// own descriptor order).
func (e Extension) Key() (string, []int) {
	kg := e.Base.Clone()
	target := len(kg.Vertices)
	kg.Vertices = append(kg.Vertices, query.Vertex{Label: e.TargetLabel | targetMarker})
	kg.Edges = append(kg.Edges, e.Edges...)
	code, perm := kg.CanonicalCodeWithPerm()

	type tup struct {
		src   int
		dir   graph.Direction
		label graph.Label
		orig  int
	}
	tuples := make([]tup, len(e.Edges))
	for i, ed := range e.Edges {
		src, dir := ed.From, graph.Backward
		if ed.From == target {
			// target -> src: candidates come from src's backward list.
			src = ed.To
		} else {
			// src -> target: candidates from src's forward list.
			dir = graph.Forward
		}
		tuples[i] = tup{src: perm[src], dir: dir, label: ed.Label, orig: i}
	}
	sort.Slice(tuples, func(a, b int) bool {
		x, y := tuples[a], tuples[b]
		if x.src != y.src {
			return x.src < y.src
		}
		if x.dir != y.dir {
			return x.dir < y.dir
		}
		return x.label < y.label
	})
	ranks := make([]int, len(e.Edges))
	for rank, t := range tuples {
		ranks[t.orig] = rank
	}
	return code, ranks
}
