// Package query models subgraph queries: directed, connected graphs with
// optional vertex and edge labels (paper Section 2). It also provides the
// pattern parser, the packed canonical code (the catalogue's and the plan
// cache's keys), projection and connectivity utilities used by the
// optimizer's dynamic program, and the 14 benchmark queries of Figure 6.
package query

import (
	"fmt"
	"math/bits"
	"strings"

	"graphflow/internal/graph"
)

// MaxVertices bounds the number of query vertices supported by the bitmask
// machinery (vertex subsets are uint32 masks).
const MaxVertices = 30

// Vertex is a query vertex: a user-visible name plus a label constraint.
type Vertex struct {
	Name  string
	Label graph.Label
}

// Edge is a directed query edge between vertex indices with a label
// constraint.
type Edge struct {
	From, To int
	Label    graph.Label
}

// Graph is a subgraph query. Vertices are referenced by index everywhere in
// the planner; names only matter for parsing and printing.
type Graph struct {
	Vertices []Vertex
	Edges    []Edge
}

// NumVertices returns the number of query vertices.
func (q *Graph) NumVertices() int { return len(q.Vertices) }

// NumEdges returns the number of query edges.
func (q *Graph) NumEdges() int { return len(q.Edges) }

// VertexIndex returns the index of the named vertex, or -1.
func (q *Graph) VertexIndex(name string) int {
	for i, v := range q.Vertices {
		if v.Name == name {
			return i
		}
	}
	return -1
}

// Validate checks the structural assumptions of Section 2: at least one
// edge, no self-loops, vertex indices in range, no duplicate edges (same
// endpoints, direction and label), connectivity, and the MaxVertices bound.
func (q *Graph) Validate() error {
	if len(q.Vertices) > MaxVertices {
		return fmt.Errorf("query: %d vertices exceeds the supported maximum %d", len(q.Vertices), MaxVertices)
	}
	if len(q.Edges) == 0 {
		return fmt.Errorf("query: no edges")
	}
	seen := map[Edge]struct{}{}
	for _, e := range q.Edges {
		if e.From < 0 || e.From >= len(q.Vertices) || e.To < 0 || e.To >= len(q.Vertices) {
			return fmt.Errorf("query: edge (%d->%d) out of range", e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("query: self-loop on vertex %d", e.From)
		}
		if _, dup := seen[e]; dup {
			return fmt.Errorf("query: duplicate edge %d->%d", e.From, e.To)
		}
		seen[e] = struct{}{}
	}
	names := map[string]struct{}{}
	for _, v := range q.Vertices {
		if v.Name != "" {
			if _, dup := names[v.Name]; dup {
				return fmt.Errorf("query: duplicate vertex name %q", v.Name)
			}
			names[v.Name] = struct{}{}
		}
	}
	full := AllMask(len(q.Vertices))
	if !q.IsConnected(full) {
		return fmt.Errorf("query: not connected")
	}
	return nil
}

// Mask is a set of query-vertex indices.
type Mask = uint32

// AllMask returns the mask containing vertices 0..n-1.
func AllMask(n int) Mask { return Mask(1)<<uint(n) - 1 }

// Bit returns the mask for a single vertex.
func Bit(v int) Mask { return Mask(1) << uint(v) }

// IsConnected reports whether the vertices in mask induce a connected
// subgraph (edges considered undirected).
func (q *Graph) IsConnected(mask Mask) bool {
	if mask == 0 {
		return false
	}
	// One pass over the edges for the induced neighbour sets, then a
	// breadth-first search on bitmasks.
	var nbr [32]Mask
	for _, e := range q.Edges {
		fb, tb := Bit(e.From), Bit(e.To)
		if fb&mask != 0 && tb&mask != 0 {
			nbr[e.From] |= tb
			nbr[e.To] |= fb
		}
	}
	reached := mask & -mask
	for frontier := reached; frontier != 0; {
		v := bits.TrailingZeros32(frontier)
		frontier &^= Bit(v)
		fresh := nbr[v] &^ reached
		reached |= fresh
		frontier |= fresh
	}
	return reached == mask
}

// EdgesWithin returns the query edges whose both endpoints are in mask —
// the edge set of the projection ΠVk(Q) (Section 4.1: projections are
// induced subgraphs).
func (q *Graph) EdgesWithin(mask Mask) []Edge {
	n := 0
	for _, e := range q.Edges {
		if mask&Bit(e.From) != 0 && mask&Bit(e.To) != 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Edge, 0, n)
	for _, e := range q.Edges {
		if mask&Bit(e.From) != 0 && mask&Bit(e.To) != 0 {
			out = append(out, e)
		}
	}
	return out
}

// connects reports whether e joins vertex v to a vertex of mask, in
// either direction.
func (e Edge) connects(mask Mask, v int) bool {
	return (e.From == v && mask&Bit(e.To) != 0) || (e.To == v && mask&Bit(e.From) != 0)
}

// NumEdgesBetween counts the query edges connecting vertex v to vertices
// in mask: the number of adjacency lists an E/I operator intersects when
// it extends the mask-subquery by v.
func (q *Graph) NumEdgesBetween(mask Mask, v int) int {
	n := 0
	for _, e := range q.Edges {
		if e.connects(mask, v) {
			n++
		}
	}
	return n
}

// EdgesBetween returns the query edges connecting vertex v to vertices in
// mask (in either direction), in q.Edges order. These become the
// adjacency-list descriptors when an E/I operator extends the
// mask-subquery by v.
func (q *Graph) EdgesBetween(mask Mask, v int) []Edge {
	n := q.NumEdgesBetween(mask, v)
	if n == 0 {
		return nil
	}
	out := make([]Edge, 0, n)
	for _, e := range q.Edges {
		if e.connects(mask, v) {
			out = append(out, e)
		}
	}
	return out
}

// Project returns the induced subquery on mask, together with the mapping
// from new vertex index to original vertex index (ordered ascending).
func (q *Graph) Project(mask Mask) (*Graph, []int) {
	var orig []int
	newIdx := make(map[int]int)
	for v := 0; v < len(q.Vertices); v++ {
		if mask&Bit(v) != 0 {
			newIdx[v] = len(orig)
			orig = append(orig, v)
		}
	}
	sub := &Graph{}
	for _, v := range orig {
		sub.Vertices = append(sub.Vertices, q.Vertices[v])
	}
	for _, e := range q.EdgesWithin(mask) {
		sub.Edges = append(sub.Edges, Edge{From: newIdx[e.From], To: newIdx[e.To], Label: e.Label})
	}
	return sub, orig
}

// ConnectedSubsets enumerates every connected vertex subset of q with at
// least minSize vertices, in increasing popcount order. The optimizer's DP
// iterates these.
func (q *Graph) ConnectedSubsets(minSize int) []Mask {
	n := len(q.Vertices)
	var out []Mask
	full := AllMask(n)
	for mask := Mask(1); mask <= full; mask++ {
		if bits.OnesCount32(mask) < minSize {
			continue
		}
		if q.IsConnected(mask) {
			out = append(out, mask)
		}
	}
	// Sort by popcount, then value, so DP dependencies precede dependents.
	sortMasksByPopcount(out)
	return out
}

func sortMasksByPopcount(masks []Mask) {
	// Insertion-friendly stable sort; subset counts are small (2^m).
	lessThan := func(a, b Mask) bool {
		pa, pb := bits.OnesCount32(a), bits.OnesCount32(b)
		if pa != pb {
			return pa < pb
		}
		return a < b
	}
	for i := 1; i < len(masks); i++ {
		for j := i; j > 0 && lessThan(masks[j], masks[j-1]); j-- {
			masks[j], masks[j-1] = masks[j-1], masks[j]
		}
	}
}

// String renders the query in the pattern syntax accepted by Parse.
func (q *Graph) String() string {
	var sb strings.Builder
	for i, e := range q.Edges {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(q.vertexString(e.From))
		if e.Label != 0 {
			fmt.Fprintf(&sb, " -[%d]-> ", e.Label)
		} else {
			sb.WriteString(" -> ")
		}
		sb.WriteString(q.vertexString(e.To))
	}
	return sb.String()
}

func (q *Graph) vertexString(i int) string {
	v := q.Vertices[i]
	name := v.Name
	if name == "" {
		name = fmt.Sprintf("a%d", i+1)
	}
	if v.Label != 0 {
		return fmt.Sprintf("%s:%d", name, v.Label)
	}
	return name
}

// Clone returns a deep copy.
func (q *Graph) Clone() *Graph {
	return &Graph{
		Vertices: append([]Vertex(nil), q.Vertices...),
		Edges:    append([]Edge(nil), q.Edges...),
	}
}

// Undirected degree of vertex v inside the query (used by heuristics and
// the CFL-style core/forest split).
func (q *Graph) Degree(v int) int {
	d := 0
	for _, e := range q.Edges {
		if e.From == v || e.To == v {
			d++
		}
	}
	return d
}
