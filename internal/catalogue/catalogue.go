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
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"maps"
	"math"
	"runtime"
	"slices"

	"graphflow/internal/graph"
	"graphflow/internal/query"
)

// Key identifies an entry: the canonical code of (Q_{k-1}, A, a_k) read
// as one graph — the base subquery, the new vertex flagged as the code's
// target, and one edge per adjacency-list descriptor. The flag is a bit
// of the code, outside the label bits, so the new vertex never aliases a
// base vertex whatever labels the graph uses.
type Key = query.Code

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
// key's base subquery. The catalogue itself stores entries flat
// (entryTable); an Entry is how one is read out and how it is saved.
type Entry struct {
	// ListSizes are the average sizes of the descriptor lists, in canonical
	// descriptor order.
	ListSizes []float64 `json:"lists"`
	// Mu is the average number of extensions per base instance.
	Mu float64 `json:"mu"`
	// Samples is the number of base instances measured.
	Samples int `json:"samples"`
}

// edgeLabels and listLabels key the exact base statistics: an edge label
// with both endpoint labels, and an edge label with the label of the
// vertices an adjacency list holds.
type (
	edgeLabels struct{ el, sl, dl graph.Label }
	listLabels struct{ el, nl graph.Label }
)

// Catalogue is the complete statistics store for one graph.
type Catalogue struct {
	Cfg     Config
	entries entryTable

	// Exact base statistics, computed in one pass over the graph.
	NumVertices int
	edgeCount   map[edgeLabels]int64
	fwdTotal    map[listLabels]int64 // total forward partition size
	bwdTotal    map[listLabels]int64 // total backward partition size
	vertexCount map[graph.Label]int64
}

func newCatalogue(cfg Config, numVertices int) *Catalogue {
	return &Catalogue{
		Cfg:         cfg,
		NumVertices: numVertices,
		edgeCount:   map[edgeLabels]int64{},
		fwdTotal:    map[listLabels]int64{},
		bwdTotal:    map[listLabels]int64{},
		vertexCount: map[graph.Label]int64{},
	}
}

// scanBaseStatistics fills the exact base statistics in one pass over
// g's vertices and one over its edges.
func (c *Catalogue) scanBaseStatistics(g graph.View) {
	for v := 0; v < g.NumVertices(); v++ {
		c.vertexCount[g.VertexLabel(graph.VertexID(v))]++
	}
	g.Edges(func(src, dst graph.VertexID, el graph.Label) bool {
		c.edgeCount[edgeLabels{el, g.VertexLabel(src), g.VertexLabel(dst)}]++
		return true
	})
	for k, n := range c.edgeCount {
		c.fwdTotal[listLabels{k.el, k.dl}] += n
		c.bwdTotal[listLabels{k.el, k.sl}] += n
	}
}

// ScanCount returns the exact number of edges matching the given labels —
// the selectivity µ(l_e) used to seed 2-vertex subqueries in Algorithm 1.
func (c *Catalogue) ScanCount(el, srcLabel, dstLabel graph.Label) float64 {
	return float64(c.edgeCount[edgeLabels{el, srcLabel, dstLabel}])
}

// VertexCountByLabel returns the exact number of vertices carrying the
// label; used as the cardinality of single-query-vertex prefixes when the
// optimizer reasons about intersection-cache reuse across scan tuples
// grouped by source vertex.
func (c *Catalogue) VertexCountByLabel(vl graph.Label) float64 {
	return float64(c.vertexCount[vl])
}

// DefaultListSize returns the graph-wide average adjacency-partition size
// for (dir, edge label, neighbour label): the fallback when an entry is
// missing.
func (c *Catalogue) DefaultListSize(dir graph.Direction, el, nl graph.Label) float64 {
	if c.NumVertices == 0 {
		return 0
	}
	total := c.bwdTotal[listLabels{el, nl}]
	if dir == graph.Forward {
		total = c.fwdTotal[listLabels{el, nl}]
	}
	return float64(total) / float64(c.NumVertices)
}

// Build constructs the catalogue for g — any graph View, so a live
// snapshot is sampled without materialising a CSR. Its measurements run
// on runtime.GOMAXPROCS(0) workers; the catalogue is the same on any
// number of them.
func Build(g graph.View, cfg Config) *Catalogue {
	return build(g, cfg, runtime.GOMAXPROCS(0))
}

// fileVersion is the version of the JSON form. Version 2 writes entry
// keys as hex-encoded packed codes; files from before carry no version
// and keys in a rendered-string format this package no longer computes.
const fileVersion = 2

// catalogueFile is the JSON form of a Catalogue. Only here do keys take
// string shapes: hex for the entry keys, "el/sl/dl", "el/nl" and "vl"
// for the base statistics.
type catalogueFile struct {
	Version     int              `json:"version"`
	Cfg         Config           `json:"config"`
	Entries     map[string]Entry `json:"entries"`
	NumVertices int              `json:"numVertices"`
	EdgeCount   map[string]int64 `json:"edgeCount"`
	FwdTotal    map[string]int64 `json:"fwdTotal"`
	BwdTotal    map[string]int64 `json:"bwdTotal"`
	VertexCount map[string]int64 `json:"vertexCount"`
}

// Save writes the catalogue as JSON.
func (c *Catalogue) Save(w io.Writer) error {
	f := catalogueFile{
		Version:     fileVersion,
		Cfg:         c.Cfg,
		Entries:     make(map[string]Entry, c.Len()),
		NumVertices: c.NumVertices,
		EdgeCount:   make(map[string]int64, len(c.edgeCount)),
		FwdTotal:    make(map[string]int64, len(c.fwdTotal)),
		BwdTotal:    make(map[string]int64, len(c.bwdTotal)),
		VertexCount: make(map[string]int64, len(c.vertexCount)),
	}
	for e := range c.entries.len() {
		f.Entries[hex.EncodeToString(c.entries.key(e))] = c.entries.entry(e)
	}
	for k, n := range c.edgeCount {
		f.EdgeCount[fmt.Sprintf("%d/%d/%d", k.el, k.sl, k.dl)] = n
	}
	for k, n := range c.fwdTotal {
		f.FwdTotal[fmt.Sprintf("%d/%d", k.el, k.nl)] = n
	}
	for k, n := range c.bwdTotal {
		f.BwdTotal[fmt.Sprintf("%d/%d", k.el, k.nl)] = n
	}
	for vl, n := range c.vertexCount {
		f.VertexCount[fmt.Sprintf("%d", vl)] = n
	}
	return json.NewEncoder(w).Encode(f)
}

// Load reads a catalogue written by Save. A file of another version is
// refused rather than converted: building one takes seconds.
func Load(r io.Reader) (*Catalogue, error) {
	var f catalogueFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("catalogue: load: %w", err)
	}
	if f.Version != fileVersion {
		return nil, fmt.Errorf("catalogue: load: file has format version %d, this build reads version %d: rebuild the catalogue", f.Version, fileVersion)
	}
	c := newCatalogue(f.Cfg, f.NumVertices)
	// Sorted, so the entries are numbered alike on every load.
	for _, k := range slices.Sorted(maps.Keys(f.Entries)) {
		raw, err := hex.DecodeString(k)
		if err != nil {
			return nil, fmt.Errorf("catalogue: load: entry key %q: %w", k, err)
		}
		e := f.Entries[k]
		if e.Samples < 0 || uint64(e.Samples) > math.MaxUint32 {
			return nil, fmt.Errorf("catalogue: load: entry %q: %d samples", k, e.Samples)
		}
		if i, _ := c.entries.find(raw); i >= 0 {
			return nil, fmt.Errorf("catalogue: load: entry key %q appears twice", k)
		}
		i := c.entries.add(raw, len(e.ListSizes))
		copy(c.entries.listsOf(i), e.ListSizes)
		c.entries.mu[i], c.entries.samples[i] = e.Mu, uint32(e.Samples)
	}
	c.entries.trim()
	for k, n := range f.EdgeCount {
		var key edgeLabels
		if _, err := fmt.Sscanf(k, "%d/%d/%d", &key.el, &key.sl, &key.dl); err != nil {
			return nil, fmt.Errorf("catalogue: load: edge count key %q: %w", k, err)
		}
		c.edgeCount[key] = n
	}
	for _, side := range []struct {
		from map[string]int64
		to   map[listLabels]int64
	}{{f.FwdTotal, c.fwdTotal}, {f.BwdTotal, c.bwdTotal}} {
		for k, n := range side.from {
			var key listLabels
			if _, err := fmt.Sscanf(k, "%d/%d", &key.el, &key.nl); err != nil {
				return nil, fmt.Errorf("catalogue: load: list total key %q: %w", k, err)
			}
			side.to[key] = n
		}
	}
	for k, n := range f.VertexCount {
		var vl graph.Label
		if _, err := fmt.Sscanf(k, "%d", &vl); err != nil {
			return nil, fmt.Errorf("catalogue: load: vertex count key %q: %w", k, err)
		}
		c.vertexCount[vl] = n
	}
	return c, nil
}

// Len returns the number of extension entries.
func (c *Catalogue) Len() int { return c.entries.len() }

// Bytes returns what the entries hold in memory: the capacities of the
// flat table's arrays times their element sizes.
func (c *Catalogue) Bytes() int64 { return c.entries.bytes() }

// Lookup returns the entry keyed k. Its ListSizes alias the catalogue
// and must not be modified.
func (c *Catalogue) Lookup(k Key) (Entry, bool) {
	e, _ := c.entries.find([]byte(k))
	if e < 0 {
		return Entry{}, false
	}
	return c.entries.entry(e), true
}

// All yields every entry with its key, in the order Build first measured
// them (Load: in key order). Each ListSizes aliases the catalogue and
// must not be modified.
func (c *Catalogue) All() iter.Seq2[Key, Entry] {
	return func(yield func(Key, Entry) bool) {
		for e := range c.entries.len() {
			if !yield(Key(c.entries.key(e)), c.entries.entry(e)) {
				return
			}
		}
	}
}

// Extension describes extending Base by one new query vertex. Edges
// reference Base's vertex indices plus Base.NumVertices() for the target.
// It is the paper's (Q_{k-1}, A, a_k) spelled out; the estimator and the
// sampler address the same thing in place, as a vertex subset of a larger
// graph plus one more of its vertices (extensionKey).
type Extension struct {
	Base        *query.Graph
	Edges       []query.Edge
	TargetLabel graph.Label
}

// graph returns the extension as one graph: Base, then the target as
// the last vertex, then Edges after Base's own.
func (e Extension) graph() *query.Graph {
	kg := e.Base.Clone()
	kg.Vertices = append(kg.Vertices, query.Vertex{Label: e.TargetLabel})
	kg.Edges = append(kg.Edges, e.Edges...)
	return kg
}

// Key returns the canonical entry key and, for each input edge, its rank in
// the canonical descriptor order (so callers can align ListSizes with their
// own descriptor order).
func (e Extension) Key() (Key, []int) {
	kg := e.graph()
	target := len(e.Base.Vertices)
	base := query.AllMask(target)
	var perm [query.MaxVertices]int
	key := Key(extensionKey(nil, kg, base, target, perm[:]))
	ranks := make([]int, 0, len(e.Edges))
	for _, ed := range e.Edges {
		ranks = append(ranks, descriptorRank(kg, base, target, &perm, ed))
	}
	return key, ranks
}

// ExtensionKey returns the key of extending the projection of q onto base
// by vertex v of q, through q's edges between v and base.
func ExtensionKey(q *query.Graph, base query.Mask, v int) Key {
	return Key(extensionKey(nil, q, base, v, nil))
}

// extensionKey appends the bytes of ExtensionKey(q, base, v) to dst and,
// unless perm is nil, leaves the canonical renumbering of base's vertices
// and v in it.
func extensionKey(dst []byte, q *query.Graph, base query.Mask, v int, perm []int) []byte {
	return q.AppendCanonicalCode(dst, base|query.Bit(v), v, perm)
}

// descriptorOf reports whether query edge e is an adjacency-list
// descriptor of extending base by v — an edge between v and a vertex of
// base — and if so its anchor (the endpoint in base, whose list is read)
// and the direction of that list: forward for anchor->v, backward for
// v->anchor.
func descriptorOf(e query.Edge, base query.Mask, v int) (anchor int, dir graph.Direction, ok bool) {
	switch {
	case e.To == v && base&query.Bit(e.From) != 0:
		return e.From, graph.Forward, true
	case e.From == v && base&query.Bit(e.To) != 0:
		return e.To, graph.Backward, true
	}
	return 0, 0, false
}

// descriptorOrder is the sort key of a descriptor in an entry's
// ListSizes: canonical anchor index, then direction, then edge label.
func descriptorOrder(perm *[query.MaxVertices]int, anchor int, dir graph.Direction, el graph.Label) uint64 {
	return uint64(perm[anchor])<<17 | uint64(dir)<<16 | uint64(el)
}

// descriptorRank returns the position of descriptor d among the
// descriptors of extending base by v, in the order an entry stores its
// ListSizes. perm is the renumbering extensionKey left for the same
// (q, base, v). It rescans q's edges instead of sorting them, so it
// needs no buffer however many descriptors there are; extensions have a
// handful.
func descriptorRank(q *query.Graph, base query.Mask, v int, perm *[query.MaxVertices]int, d query.Edge) int {
	anchor, dir, _ := descriptorOf(d, base, v)
	own := descriptorOrder(perm, anchor, dir, d.Label)
	rank := 0
	for _, e := range q.Edges {
		if a, dr, ok := descriptorOf(e, base, v); ok && descriptorOrder(perm, a, dr, e.Label) < own {
			rank++
		}
	}
	return rank
}
