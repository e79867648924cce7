// Package graph implements the in-memory graph store of Graphflow-Go.
//
// The store follows Section 2 and Section 7 of Mhedhbi & Salihoglu (VLDB
// 2019): every vertex indexes both its forward (outgoing) and backward
// (incoming) adjacency lists. Each per-vertex list is partitioned first by
// the edge label and then by the label of the neighbour vertex, and the
// neighbours inside a partition are sorted by vertex ID so that multiway
// intersections run over sorted runs.
//
// Graphs are immutable after Build; all read methods are safe for
// concurrent use.
package graph

import (
	"fmt"
	"slices"
	"unsafe"
)

// VertexID identifies a vertex in the data graph.
type VertexID uint32

// Label identifies a vertex label or an edge label. Label 0 is the default
// label carried by unlabeled graphs and queries.
type Label uint16

// WildcardLabel matches any label when used in a lookup.
const WildcardLabel Label = 0xFFFF

// Direction selects the forward (outgoing) or backward (incoming) adjacency
// index of a vertex.
type Direction uint8

const (
	// Forward addresses the outgoing adjacency list of a vertex.
	Forward Direction = iota
	// Backward addresses the incoming adjacency list of a vertex.
	Backward
)

// Reverse returns the opposite direction.
func (d Direction) Reverse() Direction {
	if d == Forward {
		return Backward
	}
	return Forward
}

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == Forward {
		return "fwd"
	}
	return "bwd"
}

// Adjacency stores one direction of a graph's edges. nbrs holds every
// vertex's neighbours, sorted by (edge label, neighbour label, ID), and a
// directory over it has one entry per run, in vertex order: entry i's run
// is nbrs[start[i]:start[i+1]], the last start being len(nbrs), and v's
// entries are entry(v) up to entry(v+1). The directory takes one of two
// forms, chosen from the data by the writer — the smaller, strided on a
// tie:
//
//   - strided (k > 0): every vertex owns k = ne·nn entries, one per (edge
//     label, neighbour label) pair in that order, whether its run is empty
//     or not: v's (e, n) entry is v·k + e·nn + n, so an exact lookup is
//     arithmetic and two adjacent loads. keys holds the k slots' labels,
//     the same for every vertex. Every unlabelled graph is strided, k = 1.
//   - sparse: only non-empty runs have entries (an isolated vertex one
//     empty entry), keys holds each entry's labels, and v's entries are
//     first[v] up to first[v+1], searched by label. A graph with many
//     label pairs and few of them used per vertex is sparse.
//
// A Graph keeps one per direction. The live store's overlay keeps one per
// mutated vertex and direction: a one-vertex copy in the sparse form with
// no empty entry (CopyVertex, Insert, Remove), read at vertex 0 through
// the same methods.
type Adjacency struct {
	// The counts come first: a read tests k before anything else, and a
	// one-vertex copy embedded after a word of its owner's (live's vadj)
	// then finds k on the cache line that word is on — the compaction fold
	// walks thousands of copies.
	k, ne, nn uint32 // strided: entries per vertex, edge labels, neighbour labels

	first []uint32
	start []uint32
	keys  []uint32 // labels packed by key
	nbrs  []VertexID
}

// key packs a label pair so that keys order as the pairs do.
//
//gf:noalloc
func key(e, n Label) uint32 { return uint32(e)<<16 | uint32(n) }

// Graph is an immutable directed graph with vertex and edge labels.
type Graph struct {
	n       int
	m       int
	vLabels []Label
	fwd     Adjacency
	bwd     Adjacency

	numVertexLabels int // 1 + max vertex label
	numEdgeLabels   int // 1 + max edge label
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of distinct directed edges (parallel edges
// with the same label are deduplicated at build time).
func (g *Graph) NumEdges() int { return g.m }

// NumVertexLabels returns one more than the largest vertex label in use.
func (g *Graph) NumVertexLabels() int { return g.numVertexLabels }

// NumEdgeLabels returns one more than the largest edge label in use.
func (g *Graph) NumEdgeLabels() int { return g.numEdgeLabels }

// VertexLabel returns the label of v.
func (g *Graph) VertexLabel(v VertexID) Label { return g.vLabels[v] }

// Adjacency returns g's adjacency in dir.
func (g *Graph) Adjacency(dir Direction) *Adjacency {
	if dir == Forward {
		return &g.fwd
	}
	return &g.bwd
}

// strided reports the directory's form.
//
//gf:noalloc
func (a *Adjacency) strided() bool { return a.k > 0 }

// entry returns the directory index of v's first entry (for v = n, the
// sentinel's).
//
//gf:noalloc
func (a *Adjacency) entry(v VertexID) int {
	if a.strided() {
		return int(v) * int(a.k)
	}
	return int(a.first[v])
}

// run returns directory entry i's neighbours.
//
//gf:noalloc
func (a *Adjacency) run(i int) []VertexID {
	return a.nbrs[a.start[i]:a.start[i+1]]
}

// keyAt returns the packed labels of entry i, one of the vertex whose
// first entry is lo.
func (a *Adjacency) keyAt(i, lo int) uint32 {
	if a.strided() {
		i -= lo
	}
	return a.keys[i]
}

// find looks up v's (e, n) entry, both labels exact: its directory index
// and its run's positions, lo = hi when v has no such run. In the sparse
// form i is where the entry is or would go. In the strided form every pair
// below the label counts has a slot, possibly empty; one beyond them has
// none, so it never reads another pair's or another vertex's.
//
//gf:noalloc
func (a *Adjacency) find(v VertexID, e, n Label) (i int, lo, hi uint32) {
	if a.strided() {
		if uint32(e) >= a.ne || uint32(n) >= a.nn {
			return 0, 0, 0
		}
		i = int(v)*int(a.k) + int(e)*int(a.nn) + int(n)
		return i, a.start[i], a.start[i+1]
	}
	// Open-coded rather than slices.BinarySearch, which is not inlined:
	// an exact lookup stays one call.
	k, end := key(e, n), int(a.first[v+1])
	i = int(a.first[v])
	for j := end; i < j; {
		if mid := int(uint(i+j) >> 1); a.keys[mid] < k {
			i = mid + 1
		} else {
			j = mid
		}
	}
	if i < end && a.keys[i] == k {
		return i, a.start[i], a.start[i+1]
	}
	return i, 0, 0
}

// sel returns the entries of v that (e, n) — either may be WildcardLabel
// — can select: lo, lo+step, … below hi. In the strided form they are
// exactly the selected slots, a wildcard over e or n being a fixed stride;
// in the sparse form a wildcard gets all of v's entries, which selects
// then filters.
//
//gf:noalloc
func (a *Adjacency) sel(v VertexID, e, n Label) (lo, hi, step int) {
	if e != WildcardLabel && n != WildcardLabel {
		if i, p0, p1 := a.find(v, e, n); p0 < p1 {
			return i, i + 1, 1
		}
		return 0, 0, 1
	}
	lo, hi, step = a.entry(v), a.entry(v+1), 1
	switch {
	case !a.strided():
	case e != WildcardLabel && uint32(e) >= a.ne, n != WildcardLabel && uint32(n) >= a.nn:
		return lo, lo, 1
	case e != WildcardLabel: // one edge label: nn adjacent slots
		lo += int(e) * int(a.nn)
		hi = lo + int(a.nn)
	case n != WildcardLabel: // one neighbour label: every nn-th slot
		lo += int(n)
		step = int(a.nn)
	}
	return lo, hi, step
}

// selects reports whether entry i, one of those sel returned for (e, n),
// matches the pair.
//
//gf:noalloc
func (a *Adjacency) selects(i int, e, n Label) bool {
	if a.strided() {
		return true
	}
	k := a.keys[i]
	return (e == WildcardLabel || Label(k>>16) == e) && (n == WildcardLabel || Label(k) == n)
}

// Neighbors returns v's run labelled (e, n), aliasing a's storage, or an
// empty run when v has none. Both labels are exact: a wildcard matches no
// run here — MergedNeighbors merges the runs NeighborRuns selects.
//
//gf:noalloc
func (a *Adjacency) Neighbors(v VertexID, e, n Label) []VertexID {
	_, lo, hi := a.find(v, e, n)
	return a.nbrs[lo:hi]
}

// NeighborRuns appends to runs v's non-empty runs that (e, n) selects —
// either may be WildcardLabel — in directory order.
//
//gf:noalloc
func (a *Adjacency) NeighborRuns(v VertexID, e, n Label, runs [][]VertexID) [][]VertexID {
	lo, hi, step := a.sel(v, e, n)
	for i := lo; i < hi; i += step {
		if run := a.run(i); len(run) > 0 && a.selects(i, e, n) {
			runs = append(runs, run)
		}
	}
	return runs
}

// Degree returns how many neighbours v's runs that (e, n) selects hold;
// either label may be WildcardLabel. An exact pair is cheaper as the
// length of Neighbors, which inlines.
//
//gf:noalloc
func (a *Adjacency) Degree(v VertexID, e, n Label) int {
	lo, hi, step := a.sel(v, e, n)
	total := 0
	for i := lo; i < hi; i += step {
		if a.selects(i, e, n) {
			total += int(a.start[i+1] - a.start[i])
		}
	}
	return total
}

// Contains reports whether x is in one of v's runs that (e, n) selects.
//
//gf:noalloc
func (a *Adjacency) Contains(v VertexID, e, n Label, x VertexID) bool {
	if e != WildcardLabel && n != WildcardLabel {
		return containsSorted(a.Neighbors(v, e, n), x)
	}
	lo, hi, step := a.sel(v, e, n)
	for i := lo; i < hi; i += step {
		if a.selects(i, e, n) && containsSorted(a.run(i), x) {
			return true
		}
	}
	return false
}

// Edges calls fn(src, neighbour, edge label) for each of v's neighbours in
// directory order and reports whether fn let it finish. src is what fn
// is told the vertex is: a one-vertex copy holds its vertex at 0.
func (a *Adjacency) Edges(v, src VertexID, fn EdgeFunc) bool {
	lo, hi := a.entry(v), a.entry(v+1)
	for i := lo; i < hi; i++ {
		e := Label(a.keyAt(i, lo) >> 16)
		for _, dst := range a.run(i) {
			if !fn(src, dst, e) {
				return false
			}
		}
	}
	return true
}

// Neighbors returns the sorted neighbour list of v in direction dir,
// restricted to edges labelled eLabel and neighbours labelled nLabel. Either
// label may be WildcardLabel. The returned slice aliases internal storage
// for exact lookups; wildcard lookups that need merging copy into buf (which
// may be nil) and return it.
//
// Exact lookups are O(1) in the strided form and O(log p) in the number of
// partitions of v in the sparse form; wildcard lookups pay a k-way merge
// over the matching partitions.
//
//gf:noalloc
func (g *Graph) Neighbors(v VertexID, dir Direction, eLabel, nLabel Label, buf []VertexID) []VertexID {
	if eLabel != WildcardLabel && nLabel != WildcardLabel {
		return g.Adjacency(dir).Neighbors(v, eLabel, nLabel)
	}
	return MergedNeighbors(g, v, dir, eLabel, nLabel, buf)
}

// NeighborRuns implements View.
//
//gf:noalloc
func (g *Graph) NeighborRuns(v VertexID, dir Direction, eLabel, nLabel Label, runs [][]VertexID) [][]VertexID {
	return g.Adjacency(dir).NeighborRuns(v, eLabel, nLabel, runs)
}

// Degree returns the size of the (eLabel, nLabel) partition of v in
// direction dir; labels may be WildcardLabel.
//
//gf:noalloc
func (g *Graph) Degree(v VertexID, dir Direction, eLabel, nLabel Label) int {
	a := g.Adjacency(dir)
	if eLabel != WildcardLabel && nLabel != WildcardLabel {
		return len(a.Neighbors(v, eLabel, nLabel))
	}
	return a.Degree(v, eLabel, nLabel)
}

// OutDegree returns the total forward degree of v across all labels.
func (g *Graph) OutDegree(v VertexID) int { return g.fwd.Degree(v, WildcardLabel, WildcardLabel) }

// InDegree returns the total backward degree of v across all labels.
func (g *Graph) InDegree(v VertexID) int { return g.bwd.Degree(v, WildcardLabel, WildcardLabel) }

// HasEdge reports whether the directed edge src->dst with label eLabel
// exists. eLabel may be WildcardLabel.
//
//gf:noalloc
func (g *Graph) HasEdge(src, dst VertexID, eLabel Label) bool {
	// Search only the partitions of the destination's label; cheaper than a
	// wildcard merge.
	return g.fwd.Contains(src, eLabel, g.vLabels[dst], dst)
}

// EdgeFunc is the callback type for Edges.
type EdgeFunc func(src, dst VertexID, eLabel Label) bool

// Edges calls fn for every directed edge, grouped by source vertex; fn
// returning false stops the iteration early.
func (g *Graph) Edges(fn EdgeFunc) {
	for v := VertexID(0); int(v) < g.n; v++ {
		if !g.fwd.Edges(v, v, fn) {
			return
		}
	}
}

// EdgesOf calls fn for every forward edge of src only.
func (g *Graph) EdgesOf(src VertexID, fn EdgeFunc) {
	g.fwd.Edges(src, src, fn)
}

// noRuns is a one-vertex adjacency without runs.
var noRuns = Adjacency{start: []uint32{0}, first: []uint32{0, 0}}

// NoRuns returns a one-vertex adjacency without runs, shared and never
// written: what a vertex without any reads, at vertex 0, and what
// CopyVertex copies to start one.
func NoRuns() *Adjacency { return &noRuns }

// CopyVertex makes a a one-vertex adjacency of its own holding v's runs
// in from: the sparse form, an entry per non-empty run, with room for one
// more neighbour and one more run — so the Insert that usually follows
// regrows nothing.
func (a *Adjacency) CopyVertex(from *Adjacency, v VertexID) {
	lo, hi := from.entry(v), from.entry(v+1)
	runs := 0
	for i := lo; i < hi; i++ {
		if from.start[i] < from.start[i+1] {
			runs++
		}
	}
	p0, p1 := from.start[lo], from.start[hi]
	// first, then runs+1 positions and runs keys, each with room for one more.
	dir, nbrs := vertexArrays(2*runs+5, int(p1-p0)+1)
	a.nbrs = append(nbrs[:0], from.nbrs[p0:p1]...)
	a.first = append(dir[:0:2], 0, uint32(runs))
	a.start = dir[2 : 2 : runs+4]
	a.keys = dir[runs+4 : runs+4 : 2*runs+5]
	for i := lo; i < hi; i++ {
		if s := from.start[i]; s < from.start[i+1] {
			a.start = append(a.start, s-p0)
			a.keys = append(a.keys, from.keyAt(i, lo))
		}
	}
	a.start = append(a.start, p1-p0)
	a.k, a.ne, a.nn = 0, 0, 0
}

// vertexArrays allocates a one-vertex copy's directory, d uint32s, and
// room for n > 0 neighbours as one block without pointers: a copy is two
// allocations, its struct and this, however many runs it has, and the
// struct is small and points only into a block the collector need not
// scan.
func vertexArrays(d, n int) ([]uint32, []VertexID) {
	buf := make([]uint32, d+n)
	// A VertexID is a uint32, so the tail of buf holds n of them.
	return buf[:d:d], unsafe.Slice((*VertexID)(unsafe.Pointer(&buf[d])), n)
}

// Insert adds x to the run labelled (e, n) of a one-vertex copy, keeping
// it sorted; false if x is there already.
func (a *Adjacency) Insert(e, n Label, x VertexID) bool {
	i, lo, hi := a.find(0, e, n)
	if lo == hi {
		// A copy keeps no empty run, so there is no (e, n) entry: a new
		// one at i, its run starting where entry i's, or the sentinel's,
		// does now.
		a.start = slices.Insert(a.start, i, a.start[i])
		a.keys = slices.Insert(a.keys, i, key(e, n))
		a.first[1]++
	}
	k, found := slices.BinarySearch(a.run(i), x)
	if found {
		return false
	}
	a.nbrs = slices.Insert(a.nbrs, int(a.start[i])+k, x)
	for j := i + 1; j < len(a.start); j++ {
		a.start[j]++
	}
	return true
}

// Remove deletes x from the run labelled (e, n) of a one-vertex copy,
// dropping the run's entry when it empties; false if x is not there.
func (a *Adjacency) Remove(e, n Label, x VertexID) bool {
	i, lo, hi := a.find(0, e, n)
	k, found := slices.BinarySearch(a.nbrs[lo:hi], x)
	if !found {
		return false
	}
	pos := int(lo) + k
	a.nbrs = slices.Delete(a.nbrs, pos, pos+1)
	for j := i + 1; j < len(a.start); j++ {
		a.start[j]--
	}
	if a.start[i] == a.start[i+1] {
		a.start = slices.Delete(a.start, i, i+1)
		a.keys = slices.Delete(a.keys, i, i+1)
		a.first[1]--
	}
	return true
}

// String summarises the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{V=%d E=%d vlabels=%d elabels=%d}", g.n, g.m, g.numVertexLabels, g.numEdgeLabels)
}

// containsSorted reports whether the ID-sorted list holds x.
//
//gf:noalloc
func containsSorted(list []VertexID, x VertexID) bool {
	// Open-coded binary search; sort.Search's closure would heap-escape
	// on the HasEdge hot path.
	i, j := 0, len(list)
	for i < j {
		mid := int(uint(i+j) >> 1)
		if list[mid] < x {
			i = mid + 1
		} else {
			j = mid
		}
	}
	return i < len(list) && list[i] == x
}

// mergeSortedRuns merges two or more ID-sorted runs into buf, keeping an
// ID once per run that holds it. idx is the cursor scratch of the k-way
// case: at least len(runs) long, contents ignored.
func mergeSortedRuns(runs [][]VertexID, buf []VertexID, idx []int) []VertexID {
	out := buf[:0]
	if len(runs) == 2 {
		a, b := runs[0], runs[1]
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			if a[i] <= b[j] {
				out = append(out, a[i])
				i++
			} else {
				out = append(out, b[j])
				j++
			}
		}
		out = append(out, a[i:]...)
		out = append(out, b[j:]...)
		return out
	}
	idx = idx[:len(runs)]
	clear(idx)
	for {
		best := -1
		var bestV VertexID
		for r, run := range runs {
			if idx[r] < len(run) {
				if best == -1 || run[idx[r]] < bestV {
					best, bestV = r, run[idx[r]]
				}
			}
		}
		if best == -1 {
			return out
		}
		out = append(out, bestV)
		idx[best]++
	}
}
