// Package live is the versioned storage subsystem over the immutable CSR
// store: a delta overlay (a private sorted adjacency per mutated vertex,
// found through a path-copying index, plus appended vertices) layered on
// a frozen graph.Graph base, exposed through epoch-stamped Snapshots that
// satisfy graph.View. Compiled plans run unmodified against a Snapshot:
// every read keeps the base layout's sorted-adjacency invariants, so the
// executor's Intersect/IntersectK kernels and the WCO extenders work on
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

import (
	"slices"

	"graphflow/internal/graph"
)

// vadj is one mutated vertex's fully materialised adjacency in one
// direction: the same (edge label, neighbour label, ID)-sorted layout as
// the base, private to the vertex, and read through the same graph.Dir
// methods. parts ends in a sentinel whose Start is len(nbrs), so entry i
// spans nbrs[parts[i].Start:parts[i+1].Start]. A vadj is immutable once
// its snapshot is published; stamp is the epoch that created it, the only
// one allowed to mutate it.
type vadj struct {
	stamp uint64
	nbrs  []graph.VertexID
	parts graph.Dir
	few   [3]graph.Part // backs parts while the directory fits: no third allocation
}

// newVadj returns an empty adjacency (its directory just the sentinel)
// with room for deg neighbours in parts partitions plus the one edge (and
// the one partition) an insert may add, so the common single-edge
// mutation never regrows a slice.
func newVadj(deg, parts int) *vadj {
	a := &vadj{nbrs: make([]graph.VertexID, 0, deg+1)}
	if a.parts = a.few[:1]; parts+2 > len(a.few) {
		a.parts = make(graph.Dir, 1, parts+2)
	}
	return a
}

// clone deep-copies the adjacency so a new epoch can modify it without
// disturbing published snapshots.
func (a *vadj) clone() *vadj {
	c := newVadj(len(a.nbrs), len(a.parts)-1)
	c.nbrs = append(c.nbrs, a.nbrs...)
	c.parts = append(c.parts[:0], a.parts...)
	return c
}

// insert adds (e, nl, x) keeping the sorted layout; false if already
// present. Only called on adjacencies private to the epoch being built.
func (a *vadj) insert(e, nl graph.Label, x graph.VertexID) bool {
	i, ok := a.parts.Find(e, nl)
	if !ok {
		// A new entry at i: its (still empty) run starts where entry i's, or
		// the sentinel's, does now.
		a.parts = slices.Insert(a.parts, i, graph.Part{E: e, N: nl, Start: a.parts[i].Start})
	}
	k, found := slices.BinarySearch(a.parts.Run(a.nbrs, i), x)
	if found {
		return false
	}
	a.nbrs = slices.Insert(a.nbrs, int(a.parts[i].Start)+k, x)
	for j := i + 1; j < len(a.parts); j++ {
		a.parts[j].Start++
	}
	return true
}

// remove deletes (e, nl, x), dropping the partition when it empties;
// false if absent. Only called on adjacencies private to the epoch being
// built.
func (a *vadj) remove(e, nl graph.Label, x graph.VertexID) bool {
	i, ok := a.parts.Find(e, nl)
	if !ok {
		return false
	}
	k, found := slices.BinarySearch(a.parts.Run(a.nbrs, i), x)
	if !found {
		return false
	}
	pos := int(a.parts[i].Start) + k
	a.nbrs = slices.Delete(a.nbrs, pos, pos+1)
	for j := i + 1; j < len(a.parts); j++ {
		a.parts[j].Start--
	}
	if a.parts[i].Start == a.parts[i+1].Start {
		a.parts = slices.Delete(a.parts, i, i+1)
	}
	return true
}

// fromPartitions materialises a base vertex's adjacency into a private vadj.
func fromPartitions(g *graph.Graph, v graph.VertexID, dir graph.Direction) *vadj {
	deg := g.OutDegree(v)
	if dir == graph.Backward {
		deg = g.InDegree(v)
	}
	a := newVadj(deg, g.NumPartitions(v, dir))
	a.parts = a.parts[:0]
	g.Partitions(v, dir, func(e, nl graph.Label, nbrs []graph.VertexID) bool {
		a.parts = append(a.parts, graph.Part{E: e, N: nl, Start: uint32(len(a.nbrs))})
		a.nbrs = append(a.nbrs, nbrs...)
		return true
	})
	a.parts = append(a.parts, graph.Part{Start: uint32(len(a.nbrs))})
	return a
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

// Neighbors implements graph.View. Vertices without overlay entries read
// straight from the base CSR (the common case after compaction), so
// unmutated regions pay one index probe (a nil check while the overlay is
// empty) over the frozen store.
//
//gf:noalloc
func (s *Snapshot) Neighbors(v graph.VertexID, dir graph.Direction, e, nl graph.Label, buf []graph.VertexID) []graph.VertexID {
	if e == graph.WildcardLabel || nl == graph.WildcardLabel {
		return graph.MergedNeighbors(s, v, dir, e, nl, buf)
	}
	if a := s.overlay(dir).get(v); a != nil {
		return a.parts.Neighbors(a.nbrs, e, nl)
	}
	if int(v) < s.nBase {
		return s.base.Neighbors(v, dir, e, nl, buf)
	}
	return buf[:0]
}

// NeighborRuns implements graph.View.
//
//gf:noalloc
func (s *Snapshot) NeighborRuns(v graph.VertexID, dir graph.Direction, e, nl graph.Label, runs [][]graph.VertexID) [][]graph.VertexID {
	if a := s.overlay(dir).get(v); a != nil {
		return a.parts.AppendRuns(a.nbrs, e, nl, runs)
	}
	if int(v) < s.nBase {
		return s.base.NeighborRuns(v, dir, e, nl, runs)
	}
	return runs
}

// Degree implements graph.View.
//
//gf:noalloc
func (s *Snapshot) Degree(v graph.VertexID, dir graph.Direction, e, nl graph.Label) int {
	if a := s.overlay(dir).get(v); a != nil {
		return a.parts.Degree(e, nl)
	}
	if int(v) < s.nBase {
		return s.base.Degree(v, dir, e, nl)
	}
	return 0
}

// OutDegree implements graph.View.
func (s *Snapshot) OutDegree(v graph.VertexID) int {
	if a := s.fwd.get(v); a != nil {
		return len(a.nbrs)
	}
	if int(v) < s.nBase {
		return s.base.OutDegree(v)
	}
	return 0
}

// InDegree implements graph.View.
func (s *Snapshot) InDegree(v graph.VertexID) int {
	if a := s.bwd.get(v); a != nil {
		return len(a.nbrs)
	}
	if int(v) < s.nBase {
		return s.base.InDegree(v)
	}
	return 0
}

// HasEdge implements graph.View.
//
//gf:noalloc
func (s *Snapshot) HasEdge(src, dst graph.VertexID, e graph.Label) bool {
	if a := s.fwd.get(src); a != nil {
		return a.parts.Contains(a.nbrs, e, s.VertexLabel(dst), dst)
	}
	if int(src) < s.nBase && int(dst) < s.nBase {
		return s.base.HasEdge(src, dst, e)
	}
	// A vertex without an overlay entry has no edges beyond the base, and
	// the base cannot reference appended vertices.
	return false
}

// Edges implements graph.View.
func (s *Snapshot) Edges(fn graph.EdgeFunc) {
	n := s.NumVertices()
	stopped := false
	wrap := func(src, dst graph.VertexID, l graph.Label) bool {
		if !fn(src, dst, l) {
			stopped = true
			return false
		}
		return true
	}
	for v := 0; v < n && !stopped; v++ {
		s.EdgesOf(graph.VertexID(v), wrap)
	}
}

// EdgesOf implements graph.View.
func (s *Snapshot) EdgesOf(src graph.VertexID, fn graph.EdgeFunc) {
	if a := s.fwd.get(src); a != nil {
		a.parts.Edges(a.nbrs, src, fn)
		return
	}
	if int(src) < s.nBase {
		s.base.EdgesOf(src, fn)
	}
}
