package graph

import "fmt"

// Assembler builds an immutable Graph from adjacency that is already in
// CSR order: the caller hands over each vertex's (edge label, neighbour
// label) partitions, ID-sorted and deduplicated, in ascending vertex and
// directory order, once per direction. Nothing is sorted and no edge list
// is materialised — the runs are appended straight into the CSR arrays —
// which is what lets the live store's compaction fold an overlay into a
// fresh base by merging per-vertex runs instead of rebuilding through
// Builder. The result is structurally identical to what Builder.Build
// produces for the same edge set, hub bitsets included.
type Assembler struct {
	g   *Graph
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
	for _, adj := range []*adjacency{&a.g.fwd, &a.g.bwd} {
		adj.offsets = make([]int, n+1)
		adj.pOff = make([]int32, n+1)
		adj.nbrs = make([]VertexID, 0, edges)
	}
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
	adj := a.g.adj(dir)
	adj.pELabel = append(adj.pELabel, eLabel)
	adj.pNLabel = append(adj.pNLabel, nLabel)
	adj.pStart = append(adj.pStart, len(adj.nbrs))
	adj.nbrs = append(adj.nbrs, nbrs...)
	adj.offsets[v+1] = len(adj.nbrs)
	adj.pOff[v+1] = int32(len(adj.pStart))
}

// AppendRange appends the whole adjacency in dir of vertices [lo, hi) of
// src, a graph over the same vertex labels, in place of one
// AppendPartition call per partition: the neighbour runs and the
// directory are copied as blocks and only the positions are shifted.
func (a *Assembler) AppendRange(src *Graph, lo, hi VertexID, dir Direction) {
	from, adj := src.adj(dir), a.g.adj(dir)
	e0, p0 := from.offsets[lo], from.pOff[lo]
	shift, pShift := len(adj.nbrs)-e0, int32(len(adj.pStart))-p0
	adj.nbrs = append(adj.nbrs, from.nbrs[e0:from.offsets[hi]]...)
	adj.pELabel = append(adj.pELabel, from.pELabel[p0:from.pOff[hi]]...)
	adj.pNLabel = append(adj.pNLabel, from.pNLabel[p0:from.pOff[hi]]...)
	for _, start := range from.pStart[p0:from.pOff[hi]] {
		adj.pStart = append(adj.pStart, start+shift)
	}
	for v := lo + 1; v <= hi; v++ {
		adj.offsets[v] = from.offsets[v] + shift
		adj.pOff[v] = from.pOff[v] + pShift
	}
}

// Finish seals the graph, indexing hub partitions at the given threshold
// exactly as Builder.SetHubThreshold + Build would. The Assembler must
// not be used afterwards.
func (a *Assembler) Finish(hubThreshold int) (*Graph, error) {
	g := a.g
	if a.err != nil {
		return nil, a.err
	}
	if len(g.fwd.nbrs) != len(g.bwd.nbrs) {
		return nil, fmt.Errorf("graph: assembled %d forward but %d backward edges", len(g.fwd.nbrs), len(g.bwd.nbrs))
	}
	maxE := Label(0)
	for _, l := range g.fwd.pELabel {
		if l == WildcardLabel {
			return nil, fmt.Errorf("graph: edge uses reserved wildcard label")
		}
		if l > maxE {
			maxE = l
		}
	}
	g.m = len(g.fwd.nbrs)
	g.numEdgeLabels = int(maxE) + 1
	// Vertices that received no partition kept zero offsets; carry the
	// running ends forward so their segments and directories are empty.
	for _, adj := range []*adjacency{&g.fwd, &g.bwd} {
		for v := 1; v <= g.n; v++ {
			if adj.offsets[v] < adj.offsets[v-1] {
				adj.offsets[v] = adj.offsets[v-1]
				adj.pOff[v] = adj.pOff[v-1]
			}
		}
	}
	g.buildHubIndex(hubThreshold)
	return g, nil
}
