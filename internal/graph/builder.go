package graph

import (
	"fmt"
	"sort"
)

// Builder accumulates vertices and edges and produces an immutable Graph.
// The zero value is not usable; call NewBuilder.
type Builder struct {
	vLabels []Label
	edges   []edgeRec
}

type edgeRec struct {
	src, dst VertexID
	label    Label
}

// NewBuilder returns a Builder for a graph with numVertices vertices, all
// initially carrying label 0.
func NewBuilder(numVertices int) *Builder {
	return &Builder{vLabels: make([]Label, numVertices)}
}

// AddVertex appends a vertex with the given label and returns its ID.
func (b *Builder) AddVertex(label Label) VertexID {
	b.vLabels = append(b.vLabels, label)
	return VertexID(len(b.vLabels) - 1)
}

// SetVertexLabel assigns a label to an existing vertex.
func (b *Builder) SetVertexLabel(v VertexID, label Label) {
	b.vLabels[v] = label
}

// AddEdge records the directed edge src->dst with the given edge label.
// Self-loops and duplicate edges are permitted here; Build drops self-loops
// and deduplicates.
func (b *Builder) AddEdge(src, dst VertexID, label Label) {
	b.edges = append(b.edges, edgeRec{src, dst, label})
}

// Build constructs the immutable Graph. The Builder may be reused afterwards
// (its accumulated state is unchanged).
func (b *Builder) Build() (*Graph, error) {
	n := len(b.vLabels)
	for _, e := range b.edges {
		if int(e.src) >= n || int(e.dst) >= n {
			return nil, fmt.Errorf("graph: edge (%d->%d) references vertex beyond %d", e.src, e.dst, n-1)
		}
		if e.label == WildcardLabel {
			return nil, fmt.Errorf("graph: edge (%d->%d) uses reserved wildcard label", e.src, e.dst)
		}
	}
	maxV, maxE := Label(0), Label(0)
	for _, l := range b.vLabels {
		if l == WildcardLabel {
			return nil, fmt.Errorf("graph: vertex uses reserved wildcard label")
		}
		if l > maxV {
			maxV = l
		}
	}
	edges := make([]edgeRec, 0, len(b.edges))
	for _, e := range b.edges {
		if e.src == e.dst {
			continue // drop self-loops; subgraph queries bind distinct vertices
		}
		if e.label > maxE {
			maxE = e.label
		}
		edges = append(edges, e)
	}

	g := &Graph{
		n:               n,
		vLabels:         append([]Label(nil), b.vLabels...),
		numVertexLabels: int(maxV) + 1,
		numEdgeLabels:   int(maxE) + 1,
	}
	var err error
	if g.fwd, err = g.buildAdjacency(edges, false); err != nil {
		return nil, err
	}
	if g.bwd, err = g.buildAdjacency(edges, true); err != nil {
		return nil, err
	}
	g.m = len(g.fwd.nbrs)
	return g, nil
}

// MustBuild is Build but panics on error; convenient in tests and examples.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// buildAdjacency sorts the edges into the layout described on the
// Adjacency type, over g's vertices and label counts. When reversed is
// true the incoming index is built (the "neighbour" is the edge source).
func (g *Graph) buildAdjacency(edges []edgeRec, reversed bool) (Adjacency, error) {
	vLabels, n := g.vLabels, g.n
	type entry struct {
		owner  VertexID
		eLabel Label
		nLabel Label
		nbr    VertexID
	}
	ents := make([]entry, 0, len(edges))
	for _, e := range edges {
		owner, nbr := e.src, e.dst
		if reversed {
			owner, nbr = e.dst, e.src
		}
		ents = append(ents, entry{owner, e.label, vLabels[nbr], nbr})
	}
	sort.Slice(ents, func(i, j int) bool {
		a, b := ents[i], ents[j]
		if a.owner != b.owner {
			return a.owner < b.owner
		}
		if a.eLabel != b.eLabel {
			return a.eLabel < b.eLabel
		}
		if a.nLabel != b.nLabel {
			return a.nLabel < b.nLabel
		}
		return a.nbr < b.nbr
	})
	// Deduplicate identical (owner, eLabel, nbr) entries.
	dedup := ents[:0]
	for i, e := range ents {
		if i > 0 {
			p := dedup[len(dedup)-1]
			if p.owner == e.owner && p.eLabel == e.eLabel && p.nbr == e.nbr {
				continue
			}
		}
		dedup = append(dedup, e)
	}
	ents = dedup

	// ents are fully sorted, so partitions are contiguous.
	w := newDirWriter(n, len(ents))
	for k, e := range ents {
		if k == 0 || e.owner != ents[k-1].owner || e.eLabel != ents[k-1].eLabel || e.nLabel != ents[k-1].nLabel {
			w.part(e.owner, e.eLabel, e.nLabel)
		}
		w.nbrs = append(w.nbrs, e.nbr)
	}
	return w.finish(n, g.numEdgeLabels, g.numVertexLabels)
}
