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

import "fmt"

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

// Part is one partition directory entry: the edge and neighbour labels of
// a partition and where its ID-sorted run starts in the neighbour array.
// The run ends where the next entry's starts.
type Part struct {
	E, N  Label
	Start uint32
}

// matches reports whether p is selected by the (possibly wildcard) pair.
func (p Part) matches(e, n Label) bool {
	return (e == WildcardLabel || p.E == e) && (n == WildcardLabel || p.N == n)
}

// Dir is one vertex's partition directory: its entries in (E, N) order,
// then the entry after them, whose Start ends the last run. Entry i's run
// is nbrs[d[i].Start:d[i+1].Start]. The live overlay keeps one per
// mutated vertex and reads it through these methods.
type Dir []Part

// Find returns the index of the entry labelled (e, n) and whether there
// is one; when there is not, the index is where it would be inserted.
//
//gf:noalloc
func (d Dir) Find(e, n Label) (int, bool) {
	// Open-coded rather than sort.Search: the closure would escape and cost
	// a heap allocation on every descriptor lookup of every E/I extension.
	i, j := 0, len(d)-1
	for i < j {
		mid := int(uint(i+j) >> 1)
		if d[mid].E < e || (d[mid].E == e && d[mid].N < n) {
			i = mid + 1
		} else {
			j = mid
		}
	}
	return i, i < len(d)-1 && d[i].E == e && d[i].N == n
}

// Run returns entry i's neighbours.
//
//gf:noalloc
func (d Dir) Run(nbrs []VertexID, i int) []VertexID {
	return nbrs[d[i].Start:d[i+1].Start]
}

// Neighbors returns the run of the entry labelled (e, n) exactly, empty
// when there is none.
//
//gf:noalloc
func (d Dir) Neighbors(nbrs []VertexID, e, n Label) []VertexID {
	if i, ok := d.Find(e, n); ok {
		return d.Run(nbrs, i)
	}
	return nbrs[:0]
}

// AppendRuns appends the non-empty runs of the entries matching (e, n) —
// either may be WildcardLabel — in directory order.
//
//gf:noalloc
func (d Dir) AppendRuns(nbrs []VertexID, e, n Label, runs [][]VertexID) [][]VertexID {
	for i, p := range d[:len(d)-1] {
		if p.matches(e, n) && p.Start < d[i+1].Start {
			runs = append(runs, d.Run(nbrs, i))
		}
	}
	return runs
}

// Degree returns how many neighbours the entries matching (e, n) hold.
//
//gf:noalloc
func (d Dir) Degree(e, n Label) int {
	if e != WildcardLabel && n != WildcardLabel {
		i, ok := d.Find(e, n)
		if !ok {
			return 0
		}
		return int(d[i+1].Start - d[i].Start)
	}
	total := 0
	for i, p := range d[:len(d)-1] {
		if p.matches(e, n) {
			total += int(d[i+1].Start - p.Start)
		}
	}
	return total
}

// Contains reports whether x is in a run matching (e, n).
//
//gf:noalloc
func (d Dir) Contains(nbrs []VertexID, e, n Label, x VertexID) bool {
	if e != WildcardLabel && n != WildcardLabel {
		i, ok := d.Find(e, n)
		return ok && containsSorted(d.Run(nbrs, i), x)
	}
	for i, p := range d[:len(d)-1] {
		if p.matches(e, n) && containsSorted(d.Run(nbrs, i), x) {
			return true
		}
	}
	return false
}

// Edges calls fn for every (src, neighbour, edge label) in directory
// order and reports whether fn let the iteration finish.
func (d Dir) Edges(nbrs []VertexID, src VertexID, fn EdgeFunc) bool {
	for i, p := range d[:len(d)-1] {
		for _, dst := range d.Run(nbrs, i) {
			if !fn(src, dst, p.E) {
				return false
			}
		}
	}
	return true
}

// adjacency stores one direction of the graph. nbrs holds every vertex's
// neighbours, sorted by (edge label, neighbour label, ID), and a directory
// over it has one entry per run, in vertex order: entry i's run is
// nbrs[start[i]:start[i+1]], the last start being len(nbrs), and v's
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
type adjacency struct {
	nbrs  []VertexID
	start []uint32
	keys  []uint32 // labels packed by key
	first []uint32

	k, ne, nn uint32 // strided: entries per vertex, edge labels, neighbour labels
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
	fwd     adjacency
	bwd     adjacency

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

func (g *Graph) adj(dir Direction) *adjacency {
	if dir == Forward {
		return &g.fwd
	}
	return &g.bwd
}

// strided reports the directory's form.
//
//gf:noalloc
func (a *adjacency) strided() bool { return a.k > 0 }

// entry returns the directory index of v's first entry (for v = n, the
// sentinel's).
//
//gf:noalloc
func (a *adjacency) entry(v VertexID) int {
	if a.strided() {
		return int(v) * int(a.k)
	}
	return int(a.first[v])
}

// run returns directory entry i's neighbours.
//
//gf:noalloc
func (a *adjacency) run(i int) []VertexID {
	return a.nbrs[a.start[i]:a.start[i+1]]
}

// keyAt returns the packed labels of entry i, one of the vertex whose
// first entry is lo.
func (a *adjacency) keyAt(i, lo int) uint32 {
	if a.strided() {
		i -= lo
	}
	return a.keys[i]
}

// labels returns keyAt's labels unpacked.
func (a *adjacency) labels(i, lo int) (e, n Label) {
	k := a.keyAt(i, lo)
	return Label(k >> 16), Label(k)
}

// find returns the directory index of v's (e, n) entry, both labels
// exact, and whether v has one. In the strided form every pair below the
// label counts has a slot, possibly empty; one beyond them has none, so it
// never reads another pair's or another vertex's.
//
//gf:noalloc
func (a *adjacency) find(v VertexID, e, n Label) (int, bool) {
	if a.strided() {
		return int(v)*int(a.k) + int(e)*int(a.nn) + int(n), uint32(e) < a.ne && uint32(n) < a.nn
	}
	// Open-coded rather than slices.BinarySearch, which is not inlined:
	// an exact lookup stays one call.
	k, i, end := key(e, n), int(a.first[v]), int(a.first[v+1])
	for j := end; i < j; {
		if mid := int(uint(i+j) >> 1); a.keys[mid] < k {
			i = mid + 1
		} else {
			j = mid
		}
	}
	return i, i < end && a.keys[i] == k
}

// sel returns the entries of v that (e, n) — either may be WildcardLabel
// — can select: lo, lo+step, … below hi. In the strided form they are
// exactly the selected slots, a wildcard over e or n being a fixed stride;
// in the sparse form a wildcard gets all of v's entries, which selects
// then filters.
//
//gf:noalloc
func (a *adjacency) sel(v VertexID, e, n Label) (lo, hi, step int) {
	if e != WildcardLabel && n != WildcardLabel {
		i, ok := a.find(v, e, n)
		if !ok {
			return 0, 0, 1
		}
		return i, i + 1, 1
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
func (a *adjacency) selects(i int, e, n Label) bool {
	if a.strided() {
		return true
	}
	k := a.keys[i]
	return (e == WildcardLabel || Label(k>>16) == e) && (n == WildcardLabel || Label(k) == n)
}

// degree returns v's degree across all labels.
func (a *adjacency) degree(v VertexID) int {
	return int(a.start[a.entry(v+1)] - a.start[a.entry(v)])
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
		a := g.adj(dir)
		if i, ok := a.find(v, eLabel, nLabel); ok {
			return a.run(i)
		}
		return a.nbrs[:0]
	}
	return MergedNeighbors(g, v, dir, eLabel, nLabel, buf)
}

// NeighborRuns implements View.
//
//gf:noalloc
func (g *Graph) NeighborRuns(v VertexID, dir Direction, eLabel, nLabel Label, runs [][]VertexID) [][]VertexID {
	a := g.adj(dir)
	lo, hi, step := a.sel(v, eLabel, nLabel)
	for i := lo; i < hi; i += step {
		if run := a.run(i); len(run) > 0 && a.selects(i, eLabel, nLabel) {
			runs = append(runs, run)
		}
	}
	return runs
}

// Degree returns the size of the (eLabel, nLabel) partition of v in
// direction dir; labels may be WildcardLabel.
//
//gf:noalloc
func (g *Graph) Degree(v VertexID, dir Direction, eLabel, nLabel Label) int {
	a := g.adj(dir)
	if eLabel != WildcardLabel && nLabel != WildcardLabel {
		if i, ok := a.find(v, eLabel, nLabel); ok {
			return len(a.run(i))
		}
		return 0
	}
	lo, hi, step := a.sel(v, eLabel, nLabel)
	total := 0
	for i := lo; i < hi; i += step {
		if a.selects(i, eLabel, nLabel) {
			total += int(a.start[i+1] - a.start[i])
		}
	}
	return total
}

// OutDegree returns the total forward degree of v across all labels.
func (g *Graph) OutDegree(v VertexID) int { return g.fwd.degree(v) }

// InDegree returns the total backward degree of v across all labels.
func (g *Graph) InDegree(v VertexID) int { return g.bwd.degree(v) }

// HasEdge reports whether the directed edge src->dst with label eLabel
// exists. eLabel may be WildcardLabel.
//
//gf:noalloc
func (g *Graph) HasEdge(src, dst VertexID, eLabel Label) bool {
	// Search only the partitions of the destination's label; cheaper than a
	// wildcard merge.
	a, n := &g.fwd, g.vLabels[dst]
	lo, hi, step := a.sel(src, eLabel, n)
	for i := lo; i < hi; i += step {
		if a.selects(i, eLabel, n) && containsSorted(a.run(i), dst) {
			return true
		}
	}
	return false
}

// EdgeFunc is the callback type for Edges.
type EdgeFunc func(src, dst VertexID, eLabel Label) bool

// Edges calls fn for every directed edge, grouped by source vertex; fn
// returning false stops the iteration early.
func (g *Graph) Edges(fn EdgeFunc) {
	for v := VertexID(0); int(v) < g.n; v++ {
		if !g.fwd.edges(v, fn) {
			return
		}
	}
}

// EdgesOf calls fn for every forward edge of src only.
func (g *Graph) EdgesOf(src VertexID, fn EdgeFunc) {
	g.fwd.edges(src, fn)
}

// edges calls fn for every edge of src in directory order and reports
// whether fn let the iteration finish.
func (a *adjacency) edges(src VertexID, fn EdgeFunc) bool {
	lo, hi := a.entry(src), a.entry(src+1)
	for i := lo; i < hi; i++ {
		run := a.run(i)
		if len(run) == 0 {
			continue
		}
		e, _ := a.labels(i, lo)
		for _, dst := range run {
			if !fn(src, dst, e) {
				return false
			}
		}
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
