// Package live is the versioned storage subsystem over the immutable CSR
// store: a delta overlay (a private sorted adjacency per mutated vertex,
// found through a path-copying index, plus appended vertices) layered on
// a frozen graph.Graph base, exposed through epoch-stamped Snapshots that
// satisfy graph.View. Compiled plans run unmodified against a Snapshot:
// every read keeps the base layout's sorted-adjacency invariants, so the
// executor's Intersect/IntersectSeeded kernels and the WCO extenders work on
// overlay vertices exactly as they do on base vertices.
//
// Writers go through DB (AddVertex/AddEdge/DeleteEdge/Apply); each batch
// publishes a fresh Snapshot with an atomic pointer swap, so in-flight
// queries keep the epoch they started on (snapshot isolation) and readers
// never take a lock. A batch copies only what it touches — the adjacency
// of each mutated vertex and the index nodes above it — so its cost does
// not depend on how large the overlay has grown. A background compactor
// merges the overlay into a new CSR base once it exceeds a size
// threshold, without holding the writer lock while it does.
package live

import "graphflow/internal/graph"

// vadj is one mutated vertex's complete adjacency in one direction: a
// one-vertex graph.Adjacency in the base's sparse format, copied, edited
// and read at vertex 0 through the graph package's own methods. A vadj is
// immutable once its snapshot is published; stamp is the epoch that
// created it, the only one allowed to mutate it.
type vadj struct {
	stamp uint64
	graph.Adjacency
}

// Snapshot is one consistent epoch of the live graph: the immutable base
// CSR plus the overlay of mutated and appended vertices. It satisfies
// graph.View, is immutable after publication, and is safe for unbounded
// concurrent reads — queries compiled against a Snapshot observe exactly
// its epoch regardless of later mutations.
type Snapshot struct {
	base  *graph.Graph
	epoch uint64
	nBase int
	// extra holds the labels of vertices appended past the base; vertex
	// nBase+i carries extra[i].
	extra []graph.Label
	// fwd/bwd index mutated vertices' private adjacencies. A missing
	// entry means the base's adjacency (or empty, for appended vertices).
	fwd, bwd                       index
	m                              int // live directed edge count
	deltaOps                       int // overlay mutations since the base was built
	numVertexLabels, numEdgeLabels int
}

var _ graph.View = (*Snapshot)(nil)

func newBaseSnapshot(g *graph.Graph, epoch uint64) *Snapshot {
	return &Snapshot{
		base:            g,
		epoch:           epoch,
		nBase:           g.NumVertices(),
		m:               g.NumEdges(),
		numVertexLabels: g.NumVertexLabels(),
		numEdgeLabels:   g.NumEdgeLabels(),
	}
}

// fork starts the given epoch. Everything is shared with s: the overlay
// indexes copy on write, and extra is append-only — writers are
// serialised, a published snapshot never reads past its own length, and a
// batch discarded after a failed log append leaves only unread slots
// behind.
func (s *Snapshot) fork(epoch uint64) *Snapshot {
	ns := *s
	ns.epoch = epoch
	return &ns
}

// Epoch returns the snapshot's version number; it increases by one per
// applied mutation batch and per compaction.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Base returns the immutable CSR under the overlay.
func (s *Snapshot) Base() *graph.Graph { return s.base }

// DeltaOps returns the number of overlay mutations applied since the base
// was last (re)built — the compaction trigger metric.
func (s *Snapshot) DeltaOps() int { return s.deltaOps }

// NumVertices implements graph.View.
func (s *Snapshot) NumVertices() int { return s.nBase + len(s.extra) }

// NumEdges implements graph.View: the live (post-mutation) edge count.
func (s *Snapshot) NumEdges() int { return s.m }

// NumVertexLabels implements graph.View.
func (s *Snapshot) NumVertexLabels() int { return s.numVertexLabels }

// NumEdgeLabels implements graph.View.
func (s *Snapshot) NumEdgeLabels() int { return s.numEdgeLabels }

// VertexLabel implements graph.View.
func (s *Snapshot) VertexLabel(v graph.VertexID) graph.Label {
	if int(v) < s.nBase {
		return s.base.VertexLabel(v)
	}
	return s.extra[int(v)-s.nBase]
}

func (s *Snapshot) overlay(dir graph.Direction) *index {
	if dir == graph.Forward {
		return &s.fwd
	}
	return &s.bwd
}

// adj returns the adjacency holding v's runs in dir and the vertex to
// read them at: v's overlay entry at 0, else the base at v, else (an
// appended vertex never mutated) one without runs. While the overlay is
// empty the index probe is a nil check, so a base read goes straight into
// the base's lookup.
func (s *Snapshot) adj(v graph.VertexID, dir graph.Direction) (*graph.Adjacency, graph.VertexID) {
	if a := s.overlay(dir).get(v); a != nil {
		return &a.Adjacency, 0
	}
	if int(v) < s.nBase {
		return s.base.Adjacency(dir), v
	}
	return graph.NoRuns(), 0
}

// Neighbors implements graph.View.
//
//gf:noalloc
func (s *Snapshot) Neighbors(v graph.VertexID, dir graph.Direction, e, nl graph.Label, buf []graph.VertexID) []graph.VertexID {
	if e == graph.WildcardLabel || nl == graph.WildcardLabel {
		return graph.MergedNeighbors(s, v, dir, e, nl, buf)
	}
	a, u := s.adj(v, dir)
	return a.Neighbors(u, e, nl)
}

// NeighborRuns implements graph.View.
//
//gf:noalloc
func (s *Snapshot) NeighborRuns(v graph.VertexID, dir graph.Direction, e, nl graph.Label, runs [][]graph.VertexID) [][]graph.VertexID {
	a, u := s.adj(v, dir)
	return a.NeighborRuns(u, e, nl, runs)
}

// Degree implements graph.View.
//
//gf:noalloc
func (s *Snapshot) Degree(v graph.VertexID, dir graph.Direction, e, nl graph.Label) int {
	a, u := s.adj(v, dir)
	if e != graph.WildcardLabel && nl != graph.WildcardLabel {
		return len(a.Neighbors(u, e, nl))
	}
	return a.Degree(u, e, nl)
}

// OutDegree implements graph.View.
func (s *Snapshot) OutDegree(v graph.VertexID) int {
	a, u := s.adj(v, graph.Forward)
	return a.Degree(u, graph.WildcardLabel, graph.WildcardLabel)
}

// InDegree implements graph.View.
func (s *Snapshot) InDegree(v graph.VertexID) int {
	a, u := s.adj(v, graph.Backward)
	return a.Degree(u, graph.WildcardLabel, graph.WildcardLabel)
}

// HasEdge implements graph.View.
//
//gf:noalloc
func (s *Snapshot) HasEdge(src, dst graph.VertexID, e graph.Label) bool {
	a, u := s.adj(src, graph.Forward)
	return a.Contains(u, e, s.VertexLabel(dst), dst)
}

// Edges implements graph.View.
func (s *Snapshot) Edges(fn graph.EdgeFunc) {
	for v := graph.VertexID(0); int(v) < s.NumVertices(); v++ {
		if a, u := s.adj(v, graph.Forward); !a.Edges(u, v, fn) {
			return
		}
	}
}

// EdgesOf implements graph.View.
func (s *Snapshot) EdgesOf(src graph.VertexID, fn graph.EdgeFunc) {
	a, u := s.adj(src, graph.Forward)
	a.Edges(u, src, fn)
}
