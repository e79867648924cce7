package graph

import (
	"fmt"
	"math"
)

// maxEntries bounds the neighbour and directory entries of one direction:
// directory positions are uint32. export_test.go lowers it.
var maxEntries uint64 = math.MaxUint32

// dirWriter appends one direction's adjacency in vertex order — the
// neighbour runs, the directory over them and its first index — for both
// Builder and Assembler, so the two cannot disagree on the layout.
type dirWriter struct {
	adj   adjacency
	first []uint32
	next  VertexID // vertices below next own their first entry
}

func newDirWriter(n, edges int) dirWriter {
	return dirWriter{
		adj:   adjacency{nbrs: make([]VertexID, 0, edges), dir: make([]Part, 0, n+1)},
		first: make([]uint32, n+1),
	}
}

// open starts v's entries at the directory's end, after one empty entry
// for each vertex before it that received none. Opening the vertex being
// written does nothing.
func (w *dirWriter) open(v VertexID) {
	for ; w.next < v; w.next++ {
		w.first[w.next] = uint32(len(w.adj.dir))
		w.adj.dir = append(w.adj.dir, Part{Start: uint32(len(w.adj.nbrs))})
	}
	if w.next == v {
		w.first[v] = uint32(len(w.adj.dir))
		w.next++
	}
}

// part opens v and appends an entry for the run starting at the end of
// the neighbour array.
func (w *dirWriter) part(v VertexID, e, n Label) {
	w.open(v)
	w.adj.dir = append(w.adj.dir, Part{e, n, uint32(len(w.adj.nbrs))})
}

// finish gives the vertices left empty their entries, appends the
// sentinel and picks the form: first is kept only when some vertex owns
// more than one entry.
func (w *dirWriter) finish(n int) (adjacency, error) {
	w.open(VertexID(n))
	if uint64(len(w.adj.nbrs)) > maxEntries || uint64(len(w.adj.dir)) > maxEntries {
		return adjacency{}, fmt.Errorf("graph: %d neighbour entries in %d partitions in one direction, over the limit of %d",
			len(w.adj.nbrs), len(w.adj.dir), maxEntries)
	}
	w.adj.dir = append(w.adj.dir, Part{Start: uint32(len(w.adj.nbrs))})
	if len(w.adj.dir) != n+1 {
		w.adj.first = w.first
		w.adj.dir = append([]Part(nil), w.adj.dir...) // it outgrew its n+1 guess: drop the headroom
	}
	return w.adj, nil
}

// Assembler builds an immutable Graph from adjacency that is already in
// order: the caller hands over each vertex's (edge label, neighbour label)
// partitions, ID-sorted and deduplicated, in ascending vertex and
// directory order, once per direction. Nothing is sorted and no edge list
// is materialised — the runs are appended straight into the graph's
// arrays — which is what lets the live store's compaction fold an overlay
// into a fresh base by merging per-vertex runs instead of rebuilding
// through Builder. The result is structurally identical to what
// Builder.Build produces for the same edge set, hub bitsets included.
type Assembler struct {
	g   *Graph
	w   [2]dirWriter // by Direction
	err error
}

// NewAssembler starts a graph over the given vertex labels (the Assembler
// takes ownership of the slice). edges is a capacity hint for the number
// of directed edges.
func NewAssembler(vLabels []Label, edges int) *Assembler {
	n := len(vLabels)
	a := &Assembler{g: &Graph{n: n, vLabels: vLabels}}
	maxV := Label(0)
	for _, l := range vLabels {
		if l == WildcardLabel {
			a.err = fmt.Errorf("graph: vertex uses reserved wildcard label")
		}
		if l > maxV {
			maxV = l
		}
	}
	a.g.numVertexLabels = int(maxV) + 1
	a.w = [2]dirWriter{newDirWriter(n, edges), newDirWriter(n, edges)}
	return a
}

// AppendPartition appends the next partition of v's adjacency in dir.
// Calls for one direction must arrive in ascending (v, eLabel, nLabel)
// order; empty runs are skipped, as Build never emits an empty partition.
// nbrs is copied.
func (a *Assembler) AppendPartition(v VertexID, dir Direction, eLabel, nLabel Label, nbrs []VertexID) {
	if len(nbrs) == 0 {
		return
	}
	w := &a.w[dir]
	w.part(v, eLabel, nLabel)
	w.adj.nbrs = append(w.adj.nbrs, nbrs...)
}

// AppendRange appends the whole adjacency in dir of vertices [lo, hi) of
// src, a graph over the same vertex labels, in place of one
// AppendPartition call per partition: the neighbour runs and the
// directory entries are copied as blocks and only the positions are
// shifted.
func (a *Assembler) AppendRange(src *Graph, lo, hi VertexID, dir Direction) {
	from, w := src.adj(dir), &a.w[dir]
	w.open(lo)
	p0, p1 := from.entry(lo), from.entry(hi)
	shift, pShift := uint32(len(w.adj.nbrs))-from.dir[p0].Start, uint32(len(w.adj.dir))-p0
	w.adj.nbrs = append(w.adj.nbrs, from.nbrs[from.dir[p0].Start:from.dir[p1].Start]...)
	for _, p := range from.dir[p0:p1] {
		p.Start += shift
		w.adj.dir = append(w.adj.dir, p)
	}
	for v := lo + 1; v < hi; v++ {
		w.first[v] = from.entry(v) + pShift
	}
	w.next = hi
}

// Finish seals the graph, indexing hub partitions at the given threshold
// exactly as Builder.SetHubThreshold + Build would. The Assembler must
// not be used afterwards.
func (a *Assembler) Finish(hubThreshold int) (*Graph, error) {
	g := a.g
	if a.err != nil {
		return nil, a.err
	}
	var err error
	if g.fwd, err = a.w[Forward].finish(g.n); err != nil {
		return nil, err
	}
	if g.bwd, err = a.w[Backward].finish(g.n); err != nil {
		return nil, err
	}
	if len(g.fwd.nbrs) != len(g.bwd.nbrs) {
		return nil, fmt.Errorf("graph: assembled %d forward but %d backward edges", len(g.fwd.nbrs), len(g.bwd.nbrs))
	}
	maxE := Label(0)
	for _, p := range g.fwd.dir {
		if p.E == WildcardLabel {
			return nil, fmt.Errorf("graph: edge uses reserved wildcard label")
		}
		maxE = max(maxE, p.E)
	}
	g.m = len(g.fwd.nbrs)
	g.numEdgeLabels = int(maxE) + 1
	g.buildHubIndex(hubThreshold)
	return g, nil
}
