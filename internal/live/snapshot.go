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
	"graphflow/internal/graph"
)

// vadj is one mutated vertex's fully materialised adjacency in one
// direction: the same (edge label, neighbour label, ID)-sorted layout as
// the base CSR, but private to the vertex. Partition i spans
// nbrs[parts[i].start:end] where end is parts[i+1].start (or len(nbrs)
// for the last). A vadj is immutable once its snapshot is published;
// stamp is the epoch that created it, the only one allowed to mutate it.
type vadj struct {
	stamp uint64
	nbrs  []graph.VertexID
	parts []part
	few   [2]part // backs parts while the directory fits: no third allocation
}

// part is one partition directory entry.
type part struct {
	e, n  graph.Label
	start uint32
}

// newVadj returns an empty adjacency with room for deg neighbours in
// parts partitions plus the one edge (and the one partition) an insert
// may add, so the common single-edge mutation never regrows a slice.
func newVadj(deg, parts int) *vadj {
	a := &vadj{nbrs: make([]graph.VertexID, 0, deg+1)}
	if a.parts = a.few[:0]; parts >= len(a.few) {
		a.parts = make([]part, 0, parts+1)
	}
	return a
}

// clone deep-copies the adjacency so a new epoch can modify it without
// disturbing published snapshots.
func (a *vadj) clone() *vadj {
	c := newVadj(len(a.nbrs), len(a.parts))
	c.nbrs = append(c.nbrs, a.nbrs...)
	c.parts = append(c.parts, a.parts...)
	return c
}

// run returns partition i's neighbours.
func (a *vadj) run(i int) []graph.VertexID {
	end := uint32(len(a.nbrs))
	if i+1 < len(a.parts) {
		end = a.parts[i+1].start
	}
	return a.nbrs[a.parts[i].start:end]
}

// findPartition returns the directory index whose (eLabel, nLabel) is the
// first >= the given pair, and whether it matches exactly.
func (a *vadj) findPartition(e, nl graph.Label) (int, bool) {
	lo, hi := 0, len(a.parts)
	for lo < hi {
		mid := (lo + hi) / 2
		if p := a.parts[mid]; p.e < e || (p.e == e && p.n < nl) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(a.parts) && a.parts[lo].e == e && a.parts[lo].n == nl
}

// matches reports whether partition p is selected by the (possibly
// wildcard) label pair.
func (p part) matches(e, nl graph.Label) bool {
	return (e == graph.WildcardLabel || p.e == e) && (nl == graph.WildcardLabel || p.n == nl)
}

// neighbors returns the exact (e, nl) partition's run, empty if absent.
func (a *vadj) neighbors(e, nl graph.Label) []graph.VertexID {
	if i, ok := a.findPartition(e, nl); ok {
		return a.run(i)
	}
	return a.nbrs[:0]
}

// appendRuns mirrors Graph.NeighborRuns over the private layout.
func (a *vadj) appendRuns(e, nl graph.Label, runs [][]graph.VertexID) [][]graph.VertexID {
	for i, p := range a.parts {
		if p.matches(e, nl) && len(a.run(i)) > 0 {
			runs = append(runs, a.run(i))
		}
	}
	return runs
}

// degree mirrors Graph.Degree.
func (a *vadj) degree(e, nl graph.Label) int {
	if e != graph.WildcardLabel && nl != graph.WildcardLabel {
		if i, ok := a.findPartition(e, nl); ok {
			return len(a.run(i))
		}
		return 0
	}
	total := 0
	for i, p := range a.parts {
		if p.matches(e, nl) {
			total += len(a.run(i))
		}
	}
	return total
}

// search returns the position in the ID-sorted run of the first value
// >= x (len(run) if none) and whether x is there — the shared kernel of
// hasEdge/insert/remove.
func search(run []graph.VertexID, x graph.VertexID) (int, bool) {
	lo, hi := 0, len(run)
	for lo < hi {
		mid := (lo + hi) / 2
		if run[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(run) && run[lo] == x
}

// hasEdge reports whether the (e, nl) partition holds dst; e may be
// WildcardLabel (nl is the destination's fixed vertex label).
func (a *vadj) hasEdge(e, nl graph.Label, dst graph.VertexID) bool {
	if e != graph.WildcardLabel {
		if i, ok := a.findPartition(e, nl); ok {
			_, ok = search(a.run(i), dst)
			return ok
		}
		return false
	}
	for i, p := range a.parts {
		if p.n == nl {
			if _, ok := search(a.run(i), dst); ok {
				return true
			}
		}
	}
	return false
}

// edges calls fn for every (src, nbr, eLabel) triple in directory order,
// returning false if fn stopped the iteration.
func (a *vadj) edges(src graph.VertexID, fn graph.EdgeFunc) bool {
	for i, p := range a.parts {
		for _, dst := range a.run(i) {
			if !fn(src, dst, p.e) {
				return false
			}
		}
	}
	return true
}

// insert adds (e, nl, x) keeping the sorted layout; false if already
// present. Only called on adjacencies private to the epoch being built.
func (a *vadj) insert(e, nl graph.Label, x graph.VertexID) bool {
	i, ok := a.findPartition(e, nl)
	if !ok {
		// New directory entry at i; its (still empty) run starts where the
		// next partition currently starts, or at the end.
		start := uint32(len(a.nbrs))
		if i < len(a.parts) {
			start = a.parts[i].start
		}
		a.parts = append(a.parts, part{})
		copy(a.parts[i+1:], a.parts[i:])
		a.parts[i] = part{e, nl, start}
	}
	k, found := search(a.run(i), x)
	if found {
		return false
	}
	pos := int(a.parts[i].start) + k
	a.nbrs = append(a.nbrs, 0)
	copy(a.nbrs[pos+1:], a.nbrs[pos:])
	a.nbrs[pos] = x
	for j := i + 1; j < len(a.parts); j++ {
		a.parts[j].start++
	}
	return true
}

// remove deletes (e, nl, x), dropping the partition when it empties;
// false if absent. Only called on adjacencies private to the epoch being
// built.
func (a *vadj) remove(e, nl graph.Label, x graph.VertexID) bool {
	i, ok := a.findPartition(e, nl)
	if !ok {
		return false
	}
	k, found := search(a.run(i), x)
	if !found {
		return false
	}
	pos := int(a.parts[i].start) + k
	a.nbrs = append(a.nbrs[:pos], a.nbrs[pos+1:]...)
	for j := i + 1; j < len(a.parts); j++ {
		a.parts[j].start--
	}
	if len(a.run(i)) == 0 {
		a.parts = append(a.parts[:i], a.parts[i+1:]...)
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
	g.Partitions(v, dir, func(e, nl graph.Label, nbrs []graph.VertexID) bool {
		a.parts = append(a.parts, part{e, nl, uint32(len(a.nbrs))})
		a.nbrs = append(a.nbrs, nbrs...)
		return true
	})
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
	// hubThreshold is the hub bitset indexing knob carried from the store's
	// Config so compaction rebuilds index their fresh base the same way.
	hubThreshold int
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
		return a.neighbors(e, nl)
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
		return a.appendRuns(e, nl, runs)
	}
	if int(v) < s.nBase {
		return s.base.NeighborRuns(v, dir, e, nl, runs)
	}
	return runs
}

// NeighborBitset implements graph.View: vertices whose adjacency is
// served by the base CSR expose its hub bitset index; overlay-resident
// (mutated or appended) vertices return nil and fall back to the sorted
// kernels until the next compaction folds them into a fresh indexed
// base. Base bitsets never contain appended vertices, and Bitset.Contains
// reports IDs beyond the base universe as absent, so probing overlay IDs
// into a base bitset is safe.
//
//gf:noalloc
func (s *Snapshot) NeighborBitset(v graph.VertexID, dir graph.Direction, e, nl graph.Label) *graph.Bitset {
	if int(v) >= s.nBase || s.overlay(dir).get(v) != nil {
		return nil
	}
	return s.base.NeighborBitset(v, dir, e, nl)
}

// Degree implements graph.View.
//
//gf:noalloc
func (s *Snapshot) Degree(v graph.VertexID, dir graph.Direction, e, nl graph.Label) int {
	if a := s.overlay(dir).get(v); a != nil {
		return a.degree(e, nl)
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
		return a.hasEdge(e, s.VertexLabel(dst), dst)
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
		a.edges(src, fn)
		return
	}
	if int(src) < s.nBase {
		s.base.EdgesOf(src, fn)
	}
}
