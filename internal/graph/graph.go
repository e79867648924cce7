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

// adjacency stores one direction of the graph in CSR form. The neighbour
// segment of vertex v spans nbrs[offsets[v]:offsets[v+1]] and is sorted by
// (edge label, neighbour label, neighbour ID). The partition directory for v
// spans partition arrays pOff[v]:pOff[v+1]; each directory entry records the
// labels of the partition and its absolute start index in nbrs. Partition
// ends are implicit (the next partition's start, or the segment end).
type adjacency struct {
	offsets []int
	nbrs    []VertexID

	pOff    []int32
	pELabel []Label
	pNLabel []Label
	pStart  []int

	// pBitset, when non-nil, aligns with the partition directory: entry i
	// is the bitset index of partition i, materialised at build time for
	// hub partitions at or above the graph's hub threshold (nil for the
	// rest). The sorted run stays canonical; the bitset is a secondary
	// representation the degree-adaptive intersection kernels dispatch on.
	pBitset []*Bitset
}

// Graph is an immutable directed graph with vertex and edge labels.
type Graph struct {
	n       int
	m       int
	vLabels []Label
	fwd     adjacency
	bwd     adjacency

	numVertexLabels int // 1 + max vertex label
	numEdgeLabels   int // 1 + max edge label

	// hubThreshold is the effective partition-size floor of the hub bitset
	// index (resolved; negative when indexing is disabled).
	hubThreshold int
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

// segment returns the whole neighbour run of v in the given direction,
// sorted by (edge label, neighbour label, ID).
func (a *adjacency) segment(v VertexID) []VertexID {
	return a.nbrs[a.offsets[v]:a.offsets[v+1]]
}

// findPartition returns the directory index of v's partition matching
// (eLabel, nLabel) exactly, and whether one exists.
func (a *adjacency) findPartition(v VertexID, eLabel, nLabel Label) (int, bool) {
	lo, hi := int(a.pOff[v]), int(a.pOff[v+1])
	// Binary search the partition directory on (eLabel, nLabel).
	// Open-coded rather than sort.Search: the closure would escape and
	// cost a heap allocation on every descriptor lookup of every E/I
	// extension.
	i, j := lo, hi
	for i < j {
		mid := int(uint(i+j) >> 1)
		if a.pELabel[mid] < eLabel || (a.pELabel[mid] == eLabel && a.pNLabel[mid] < nLabel) {
			i = mid + 1
		} else {
			j = mid
		}
	}
	if i >= hi || a.pELabel[i] != eLabel || a.pNLabel[i] != nLabel {
		return 0, false
	}
	return i, true
}

// partitionRange returns the [start, end) bounds in a.nbrs of the partition
// of v matching (eLabel, nLabel) exactly, or (0, 0) if absent.
func (a *adjacency) partitionRange(v VertexID, eLabel, nLabel Label) (int, int) {
	i, ok := a.findPartition(v, eLabel, nLabel)
	if !ok {
		return 0, 0
	}
	start := a.pStart[i]
	end := a.offsets[v+1]
	if i+1 < int(a.pOff[v+1]) {
		end = a.pStart[i+1]
	}
	return start, end
}

// Neighbors returns the sorted neighbour list of v in direction dir,
// restricted to edges labelled eLabel and neighbours labelled nLabel. Either
// label may be WildcardLabel. The returned slice aliases internal storage
// for exact lookups; wildcard lookups that need merging copy into buf (which
// may be nil) and return it.
//
// Exact lookups are O(log p) in the number of partitions of v; wildcard
// lookups pay a k-way merge over the matching partitions.
func (g *Graph) Neighbors(v VertexID, dir Direction, eLabel, nLabel Label, buf []VertexID) []VertexID {
	if eLabel != WildcardLabel && nLabel != WildcardLabel {
		a := g.adj(dir)
		s, e := a.partitionRange(v, eLabel, nLabel)
		return a.nbrs[s:e]
	}
	return MergedNeighbors(g, v, dir, eLabel, nLabel, buf)
}

// NeighborRuns implements View.
//
//gf:noalloc
func (g *Graph) NeighborRuns(v VertexID, dir Direction, eLabel, nLabel Label, runs [][]VertexID) [][]VertexID {
	a := g.adj(dir)
	lo, hi := int(a.pOff[v]), int(a.pOff[v+1])
	for i := lo; i < hi; i++ {
		if eLabel != WildcardLabel && a.pELabel[i] != eLabel {
			continue
		}
		if nLabel != WildcardLabel && a.pNLabel[i] != nLabel {
			continue
		}
		start := a.pStart[i]
		end := a.offsets[v+1]
		if i+1 < hi {
			end = a.pStart[i+1]
		}
		if start < end {
			runs = append(runs, a.nbrs[start:end])
		}
	}
	return runs
}

// NeighborBitset returns the bitset index of the exact (eLabel, nLabel)
// partition of v in direction dir, or nil when the partition is below
// the hub threshold, indexing is disabled, or either label is a
// wildcard (wildcard lookups merge several partitions, whose union
// carries duplicate semantics a bitset cannot represent).
func (g *Graph) NeighborBitset(v VertexID, dir Direction, eLabel, nLabel Label) *Bitset {
	a := g.adj(dir)
	if a.pBitset == nil || eLabel == WildcardLabel || nLabel == WildcardLabel {
		return nil
	}
	i, ok := a.findPartition(v, eLabel, nLabel)
	if !ok {
		return nil
	}
	return a.pBitset[i]
}

// buildHubIndex materialises bitsets for every partition at or above the
// resolved threshold, in both directions.
func (g *Graph) buildHubIndex(threshold int) {
	th := resolveHubThreshold(threshold)
	g.hubThreshold = th
	g.fwd.buildHubIndex(th)
	g.bwd.buildHubIndex(th)
}

func (a *adjacency) buildHubIndex(th int) {
	a.pBitset = nil
	if th < 0 {
		return
	}
	// Partition ends are globally pStart[i+1] (segments tile nbrs, and an
	// owner's last partition ends exactly where the next non-empty owner's
	// first partition starts) or len(nbrs) for the final partition.
	for i := range a.pStart {
		end := len(a.nbrs)
		if i+1 < len(a.pStart) {
			end = a.pStart[i+1]
		}
		if end-a.pStart[i] >= th {
			if a.pBitset == nil {
				a.pBitset = make([]*Bitset, len(a.pStart))
			}
			a.pBitset[i] = NewBitsetFromSorted(a.nbrs[a.pStart[i]:end])
		}
	}
}

// RebuildHubIndex replaces the hub bitset index with one built at the
// given threshold (0 takes DefaultHubThreshold, negative disables). It
// mutates the otherwise-immutable graph and is NOT safe to run
// concurrently with readers: call it before the graph is shared (the DB
// layer does so at open time, before the store is published).
func (g *Graph) RebuildHubIndex(threshold int) {
	g.buildHubIndex(threshold)
}

// HubStats summarises the hub bitset index of one graph.
type HubStats struct {
	// Threshold is the effective partition-size floor (negative when
	// indexing is disabled).
	Threshold int
	// Partitions is the number of indexed partitions across both
	// directions.
	Partitions int
	// Bytes is the memory held by the bitset words.
	Bytes int64
}

// HubThreshold returns the effective hub-index partition-size floor the
// graph was built with (negative when indexing is disabled).
func (g *Graph) HubThreshold() int { return g.hubThreshold }

// HubIndexStats reports the hub bitset index's size and memory.
func (g *Graph) HubIndexStats() HubStats {
	st := HubStats{Threshold: g.hubThreshold}
	for _, a := range []*adjacency{&g.fwd, &g.bwd} {
		for _, b := range a.pBitset {
			if b != nil {
				st.Partitions++
				st.Bytes += int64(b.WordLen()) * 8
			}
		}
	}
	return st
}

// Degree returns the size of the (eLabel, nLabel) partition of v in
// direction dir; labels may be WildcardLabel.
func (g *Graph) Degree(v VertexID, dir Direction, eLabel, nLabel Label) int {
	a := g.adj(dir)
	if eLabel != WildcardLabel && nLabel != WildcardLabel {
		s, e := a.partitionRange(v, eLabel, nLabel)
		return e - s
	}
	lo, hi := int(a.pOff[v]), int(a.pOff[v+1])
	total := 0
	for i := lo; i < hi; i++ {
		if eLabel != WildcardLabel && a.pELabel[i] != eLabel {
			continue
		}
		if nLabel != WildcardLabel && a.pNLabel[i] != nLabel {
			continue
		}
		end := a.offsets[v+1]
		if i+1 < hi {
			end = a.pStart[i+1]
		}
		total += end - a.pStart[i]
	}
	return total
}

// OutDegree returns the total forward degree of v across all labels.
func (g *Graph) OutDegree(v VertexID) int {
	return g.fwd.offsets[v+1] - g.fwd.offsets[v]
}

// InDegree returns the total backward degree of v across all labels.
func (g *Graph) InDegree(v VertexID) int {
	return g.bwd.offsets[v+1] - g.bwd.offsets[v]
}

// HasEdge reports whether the directed edge src->dst with label eLabel
// exists. eLabel may be WildcardLabel.
func (g *Graph) HasEdge(src, dst VertexID, eLabel Label) bool {
	// Search the partition matching the destination's label; cheaper than a
	// wildcard merge.
	if eLabel != WildcardLabel {
		list := g.Neighbors(src, Forward, eLabel, g.vLabels[dst], nil)
		return containsSorted(list, dst)
	}
	lo, hi := int(g.fwd.pOff[src]), int(g.fwd.pOff[src+1])
	for i := lo; i < hi; i++ {
		if g.fwd.pNLabel[i] != g.vLabels[dst] {
			continue
		}
		end := g.fwd.offsets[src+1]
		if i+1 < hi {
			end = g.fwd.pStart[i+1]
		}
		if containsSorted(g.fwd.nbrs[g.fwd.pStart[i]:end], dst) {
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
	for v := 0; v < g.n; v++ {
		src := VertexID(v)
		lo, hi := int(g.fwd.pOff[src]), int(g.fwd.pOff[src+1])
		for i := lo; i < hi; i++ {
			end := g.fwd.offsets[src+1]
			if i+1 < hi {
				end = g.fwd.pStart[i+1]
			}
			el := g.fwd.pELabel[i]
			for _, dst := range g.fwd.nbrs[g.fwd.pStart[i]:end] {
				if !fn(src, dst, el) {
					return
				}
			}
		}
	}
}

// EdgesOf calls fn for every forward edge of src only.
func (g *Graph) EdgesOf(src VertexID, fn EdgeFunc) {
	lo, hi := int(g.fwd.pOff[src]), int(g.fwd.pOff[src+1])
	for i := lo; i < hi; i++ {
		end := g.fwd.offsets[src+1]
		if i+1 < hi {
			end = g.fwd.pStart[i+1]
		}
		el := g.fwd.pELabel[i]
		for _, dst := range g.fwd.nbrs[g.fwd.pStart[i]:end] {
			if !fn(src, dst, el) {
				return
			}
		}
	}
}

// String summarises the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{V=%d E=%d vlabels=%d elabels=%d}", g.n, g.m, g.numVertexLabels, g.numEdgeLabels)
}

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
