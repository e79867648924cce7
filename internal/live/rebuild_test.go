package live

import "graphflow/internal/graph"

// Rebuild materialises the snapshot's logical graph as a fresh CSR by
// pushing every edge through graph.Builder — how compaction used to work,
// kept as the oracle that overlay reads and the merged fold are checked
// against.
func Rebuild(s *Snapshot) (*graph.Graph, error) {
	b := graph.NewBuilder(s.NumVertices())
	for v := 0; v < s.NumVertices(); v++ {
		b.SetVertexLabel(graph.VertexID(v), s.VertexLabel(graph.VertexID(v)))
	}
	s.Edges(func(src, dst graph.VertexID, l graph.Label) bool {
		b.AddEdge(src, dst, l)
		return true
	})
	return b.Build()
}
