package graph

// View is the read surface of a graph: everything the executor, the
// optimizer's catalogue sampler and the statistics collectors need, and
// nothing that exposes the underlying storage layout. The immutable CSR
// *Graph satisfies it, and so does internal/live's Snapshot (a mutable
// delta overlay over a CSR base), which is how compiled plans run
// unmodified against a consistent epoch of a changing graph.
//
// Every method must be safe for concurrent use, and the sorted-adjacency
// invariants documented on Graph carry over: Neighbors returns runs
// sorted by vertex ID (per (edge label, neighbour label) partition), so
// Intersect/IntersectK work directly on the returned slices.
type View interface {
	// NumVertices returns the number of vertices.
	NumVertices() int
	// NumEdges returns the number of distinct directed labelled edges.
	NumEdges() int
	// NumVertexLabels returns one more than the largest vertex label in use.
	NumVertexLabels() int
	// NumEdgeLabels returns one more than the largest edge label in use.
	NumEdgeLabels() int
	// VertexLabel returns the label of v.
	VertexLabel(v VertexID) Label
	// Neighbors returns the sorted neighbour list of v in direction dir,
	// restricted to edges labelled eLabel and neighbours labelled nLabel
	// (either may be WildcardLabel). The returned slice may alias internal
	// storage; wildcard lookups that need merging may copy into buf.
	Neighbors(v VertexID, dir Direction, eLabel, nLabel Label, buf []VertexID) []VertexID
	// NeighborRuns appends to runs the non-empty partition runs of v's
	// adjacency in direction dir that match (eLabel, nLabel) — either may
	// be WildcardLabel — in (edge label, neighbour label) order, each
	// sorted by ID and aliasing internal storage, and returns the extended
	// slice. It is what a wildcard Neighbors lookup merges; a
	// NeighborReader calls it with headers of its own, so that reading
	// wildcard adjacency per tuple allocates nothing.
	NeighborRuns(v VertexID, dir Direction, eLabel, nLabel Label, runs [][]VertexID) [][]VertexID
	// Degree returns the size of the (eLabel, nLabel) partition of v in
	// direction dir; labels may be WildcardLabel.
	Degree(v VertexID, dir Direction, eLabel, nLabel Label) int
	// OutDegree returns the total forward degree of v across all labels.
	OutDegree(v VertexID) int
	// InDegree returns the total backward degree of v across all labels.
	InDegree(v VertexID) int
	// HasEdge reports whether the directed edge src->dst with label eLabel
	// exists; eLabel may be WildcardLabel.
	HasEdge(src, dst VertexID, eLabel Label) bool
	// Edges calls fn for every directed edge, grouped by source vertex; fn
	// returning false stops the iteration early.
	Edges(fn EdgeFunc)
	// EdgesOf calls fn for every forward edge of src only.
	EdgesOf(src VertexID, fn EdgeFunc)
}

var _ View = (*Graph)(nil)
