package catalogue

import (
	"graphflow/internal/graph"
	"graphflow/internal/query"
)

// ExtendStats is extendStats without a memo: the statistics for
// extending the projection of q onto base by vertex v, with no Estimates
// in between.
func (c *Catalogue) ExtendStats(q *query.Graph, base query.Mask, v int, sizes []float64) (float64, bool) {
	return c.extendStats(q, base, v, sizes, nil)
}

// Lookup returns the entry keyed k. Its ListSizes alias the catalogue
// and must not be modified.
func (c *Catalogue) Lookup(k Key) (Entry, bool) {
	e, _ := c.entries.find([]byte(k))
	if e < 0 {
		return Entry{}, false
	}
	return c.entries.entry(e), true
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

// ExtensionStats estimates the statistics for extending base by a new
// vertex labelled tl through the given edges (which reference base's
// vertices plus base.NumVertices() as the target): the average size of each
// descriptor's adjacency list (aligned with the edges order) and the
// average number of extensions µ. The boolean reports whether a catalogue
// entry (direct or reduced) was found.
//
// This is the spelled-out form of ExtendStats, which planners call: it
// assembles the extension into one graph first.
func (c *Catalogue) ExtensionStats(base *query.Graph, edges []query.Edge, tl graph.Label) ([]float64, float64, bool) {
	k := base.NumVertices()
	sizes := make([]float64, len(edges))
	mu, found := c.ExtendStats(Extension{Base: base, Edges: edges, TargetLabel: tl}.graph(), query.AllMask(k), k, sizes)
	return sizes, mu, found
}
