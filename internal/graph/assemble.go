package graph

import (
	"fmt"
	"math"
	"slices"
)

// maxEntries bounds the neighbour and directory entries of one direction:
// directory positions are uint32. export_test.go lowers it.
var maxEntries uint64 = math.MaxUint32

// dirWriter appends one direction's adjacency in vertex order for both
// Builder and Assembler — the neighbour runs and an entry per run, every
// vertex owning at least one: the sparse form — and finish keeps it or
// lays it out strided, so the two cannot disagree on the layout.
type dirWriter struct {
	nbrs  []VertexID
	start []uint32
	keys  []uint32
	first []uint32
	next  VertexID // vertices below next own their first entry
}

func newDirWriter(n, edges int) dirWriter {
	return dirWriter{
		nbrs:  make([]VertexID, 0, edges),
		start: make([]uint32, 0, n+1),
		keys:  make([]uint32, 0, n),
		first: make([]uint32, n+1),
	}
}

// add appends an entry whose labels pack to k, for the run starting at
// start.
func (w *dirWriter) add(k, start uint32) {
	w.start = append(w.start, start)
	w.keys = append(w.keys, k)
}

// fill gives each vertex below v that received no entry one empty entry.
func (w *dirWriter) fill(v VertexID) {
	for ; w.next < v; w.next++ {
		w.first[w.next] = uint32(len(w.start))
		w.add(0, uint32(len(w.nbrs)))
	}
}

// part appends an entry of v for the run starting at the end of the
// neighbour array, after filling the vertices before v.
func (w *dirWriter) part(v VertexID, e, n Label) {
	w.fill(v)
	if w.next == v {
		w.first[v] = uint32(len(w.start))
		w.next++
	}
	w.add(key(e, n), uint32(len(w.nbrs)))
}

// finish fills the vertices left empty, appends the sentinel and returns
// the directory in the form that takes fewer bytes, strided with ne·nn
// slots per vertex or sparse as written — strided on a tie, so an
// unlabelled graph is always strided, at 4 bytes per vertex.
func (w *dirWriter) finish(n, ne, nn int) (Adjacency, error) {
	w.fill(VertexID(n))
	w.first[n] = uint32(len(w.start))
	entries := len(w.start)
	if uint64(len(w.nbrs)) > maxEntries || uint64(entries) > maxEntries {
		return Adjacency{}, fmt.Errorf("graph: %d neighbour entries in %d partitions in one direction, over the limit of %d",
			len(w.nbrs), entries, maxEntries)
	}
	w.start = append(w.start, uint32(len(w.nbrs)))
	if stridedFits(uint64(n), uint64(ne)*uint64(nn), uint64(entries)) {
		return w.stride(n, ne, nn), nil
	}
	return Adjacency{nbrs: w.nbrs, start: tight(w.start), keys: tight(w.keys), first: w.first}, nil
}

// stridedFits reports whether n vertices of k slots each take no more
// bytes than a sparse directory of the given entries — 4·(n·k+1) plus
// the slots' 4·k labels, against 4·(entries+1) positions, 4·entries labels
// and 4·(n+1) first indexes — and keep every slot index within maxEntries,
// so that it fits a uint32. n·k is never formed: it can overflow.
func stridedFits(n, k, entries uint64) bool {
	return (n == 0 || k <= maxEntries/n) && k <= (2*entries+n+1)/(n+1)
}

// stride lays the entries, whose labels are below ne and nn, out in ne·nn
// slots per vertex: a slot with an entry takes its position, an empty slot
// that of the next entry, so that its run is empty. When every slot has
// its entry — every unlabelled graph — the positions are the table as
// they stand; otherwise one pass lays them out.
func (w *dirWriter) stride(n, ne, nn int) Adjacency {
	k := ne * nn
	a := Adjacency{nbrs: w.nbrs, keys: make([]uint32, k), k: uint32(k), ne: uint32(ne), nn: uint32(nn)}
	for j := range a.keys {
		a.keys[j] = key(Label(j/nn), Label(j%nn))
	}
	if len(w.start) == n*k+1 {
		a.start = tight(w.start)
		return a
	}
	start, s := make([]uint32, n*k+1), 0
	for v := range n {
		base := v * k
		for i := w.first[v]; i < w.first[v+1]; i++ {
			for slot := base + int(w.keys[i]>>16)*nn + int(w.keys[i]&0xFFFF); s <= slot; s++ {
				start[s] = w.start[i]
			}
		}
	}
	for ; s < len(start); s++ {
		start[s] = uint32(len(w.nbrs))
	}
	a.start = start
	return a
}

// tight returns s without spare capacity, copying it only when it has
// some: a written array outgrows its guess by up to half again.
func tight(s []uint32) []uint32 {
	if cap(s) > len(s) {
		return slices.Clone(s)
	}
	return s
}

// Assembler builds an immutable Graph from adjacency that is already in
// order: the caller hands over stretches of vertices copied out of other
// Adjacencies, in ascending vertex order, once per direction. Nothing is
// sorted and no edge list is materialised — the runs are appended straight
// into the graph's arrays — which is what lets the live store's compaction
// fold an overlay into a fresh base by appending base stretches and
// overlay vertices instead of rebuilding through Builder. The result is
// structurally identical to what Builder.Build produces for the same edge
// set.
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

// AppendRange appends vertices [lo, hi) of src, an adjacency over the
// same vertex labels, as vertices to, to+1, … in dir: the neighbour runs
// are copied as one block, and the directory gets an entry with a shifted
// position for each non-empty run (one empty entry for a vertex without
// any), in one pass over src's entries whatever its form. Calls for one
// direction must arrive in ascending vertex order; vertices skipped
// between two calls get no runs.
func (a *Assembler) AppendRange(dir Direction, src *Adjacency, lo, hi, to VertexID) {
	w := &a.w[dir]
	w.fill(to)
	i := src.entry(lo)
	p0, p1 := src.start[i], src.start[src.entry(hi)]
	shift := uint32(len(w.nbrs)) - p0
	w.nbrs = append(w.nbrs, src.nbrs[p0:p1]...)
	first := w.first[to:]
	for v, at := lo, p0; v < hi; v++ {
		mark := len(w.start)
		first[v-lo] = uint32(mark)
		for vi, next := i, src.entry(v+1); i < next; i++ {
			s := at
			if at = src.start[i+1]; s < at {
				w.add(src.keyAt(i, vi), s+shift)
			}
		}
		if len(w.start) == mark {
			w.add(0, at+shift)
		}
	}
	w.next = to + hi - lo
}

// Finish seals the graph. The Assembler must not be used afterwards.
func (a *Assembler) Finish() (*Graph, error) {
	g := a.g
	if a.err != nil {
		return nil, a.err
	}
	maxE := Label(0)
	for _, w := range a.w {
		for _, k := range w.keys {
			e, n := Label(k>>16), Label(k)
			if e == WildcardLabel {
				return nil, fmt.Errorf("graph: edge uses reserved wildcard label")
			}
			if int(n) >= g.numVertexLabels {
				return nil, fmt.Errorf("graph: partition of neighbour label %d, beyond the %d vertex labels", n, g.numVertexLabels)
			}
			maxE = max(maxE, e)
		}
	}
	g.numEdgeLabels = int(maxE) + 1
	var err error
	if g.fwd, err = a.w[Forward].finish(g.n, g.numEdgeLabels, g.numVertexLabels); err != nil {
		return nil, err
	}
	if g.bwd, err = a.w[Backward].finish(g.n, g.numEdgeLabels, g.numVertexLabels); err != nil {
		return nil, err
	}
	if len(g.fwd.nbrs) != len(g.bwd.nbrs) {
		return nil, fmt.Errorf("graph: assembled %d forward but %d backward edges", len(g.fwd.nbrs), len(g.bwd.nbrs))
	}
	g.m = len(g.fwd.nbrs)
	return g, nil
}
