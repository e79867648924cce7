package baseline

import (
	"math/bits"
	"sort"

	"graphflow/internal/graph"
	"graphflow/internal/query"
)

// CFLCountUpTo evaluates q on g with the CFL-style strategy of Appendix C
// (Bi et al., SIGMOD 2016): decompose the query into a dense core and a
// forest; match the core first by candidate-filtered backtracking (fewer
// matches, less independence); then *count* the forest per core match
// with postponed Cartesian products — independent subtrees contribute
// multiplicatively without being enumerated. Evaluation stops once the
// count reaches limit (0 = unlimited), matching the 10^5/10^8 output caps
// of the Appendix C experiment.
//
// The count it returns uses the same homomorphism semantics as the rest of
// the repository, so it is directly comparable with every other engine.
func CFLCountUpTo(g graph.View, q *query.Graph, limit int64) int64 {
	core := coreMask(q)
	forestChildren, order := forestStructure(q, core)

	// Candidate filters per query vertex. Under homomorphism (join)
	// semantics distinct query edges may map to the same data edge, so
	// only direction-presence degree filters are sound: a query vertex
	// with any out-edge needs a data vertex with at least one out-edge.
	hasOut := make([]bool, q.NumVertices())
	hasIn := make([]bool, q.NumVertices())
	for _, e := range q.Edges {
		hasOut[e.From] = true
		hasIn[e.To] = true
	}
	candOK := func(u int, v graph.VertexID) bool {
		if g.VertexLabel(v) != q.Vertices[u].Label {
			return false
		}
		if hasOut[u] && g.OutDegree(v) == 0 {
			return false
		}
		if hasIn[u] && g.InDegree(v) == 0 {
			return false
		}
		return true
	}

	// treeCount counts matches of the subtree rooted at query vertex u,
	// given u is matched to v (postponed Cartesian products: children are
	// independent given v). Memoised per (u, v): different core matches
	// sharing a vertex reuse the subtree count.
	memo := map[uint64]int64{}
	var treeCount func(u int, v graph.VertexID) int64
	treeCount = func(u int, v graph.VertexID) int64 {
		if len(forestChildren[u]) == 0 {
			return 1
		}
		key := uint64(u)<<32 | uint64(v)
		if c, ok := memo[key]; ok {
			return c
		}
		total := int64(1)
		for _, ce := range forestChildren[u] {
			child := ce.child
			var sum int64
			for _, w := range g.Neighbors(v, ce.dir, ce.label, q.Vertices[child].Label, nil) {
				sum += treeCount(child, w)
			}
			total *= sum
			if total == 0 {
				break
			}
		}
		memo[key] = total
		return total
	}

	// Match the core by backtracking in the given order; multiply forest
	// counts at the end of each full core match.
	coreVerts := order
	assign := make([]graph.VertexID, q.NumVertices())
	boundMask := query.Mask(0)
	var total int64

	var rec func(pos int)
	rec = func(pos int) {
		if limit > 0 && total >= limit {
			return
		}
		if pos == len(coreVerts) {
			prod := int64(1)
			for _, u := range coreVerts {
				prod *= treeCount(u, assign[u])
				if prod == 0 {
					return
				}
			}
			total += prod
			return
		}
		u := coreVerts[pos]
		cands := coreCandidates(g, q, u, assign, boundMask, candOK)
		for _, v := range cands {
			if limit > 0 && total >= limit {
				return
			}
			if !coreConsistent(g, q, u, v, assign, boundMask) {
				continue
			}
			assign[u] = v
			boundMask |= query.Bit(u)
			rec(pos + 1)
			boundMask &^= query.Bit(u)
		}
	}
	rec(0)
	if limit > 0 && total > limit {
		total = limit
	}
	return total
}

// coreMask returns the 2-core of the query (undirected view): repeatedly
// strip degree-<2 vertices. Acyclic queries have an empty 2-core; the
// densest vertex then serves as a single-vertex core.
func coreMask(q *query.Graph) query.Mask {
	n := q.NumVertices()
	alive := query.AllMask(n)
	for {
		removed := false
		for v := 0; v < n; v++ {
			if alive&query.Bit(v) == 0 {
				continue
			}
			deg := 0
			for _, e := range q.Edges {
				if e.From == v && alive&query.Bit(e.To) != 0 {
					deg++
				}
				if e.To == v && alive&query.Bit(e.From) != 0 {
					deg++
				}
			}
			if deg < 2 {
				alive &^= query.Bit(v)
				removed = true
			}
		}
		if !removed {
			break
		}
	}
	if alive == 0 {
		// Tree query: root at the max-degree vertex.
		best, bestDeg := 0, -1
		for v := 0; v < n; v++ {
			if d := q.Degree(v); d > bestDeg {
				best, bestDeg = v, d
			}
		}
		alive = query.Bit(best)
	}
	return alive
}

type forestEdge struct {
	child int
	dir   graph.Direction
	label graph.Label
}

// forestStructure assigns every non-core vertex to a parent (its unique
// path toward the core) and returns, per vertex, its forest children,
// plus a connected matching order of the core vertices.
func forestStructure(q *query.Graph, core query.Mask) (map[int][]forestEdge, []int) {
	n := q.NumVertices()
	children := map[int][]forestEdge{}
	visited := core
	frontier := core
	for visited != query.AllMask(n) {
		var next query.Mask
		for _, e := range q.Edges {
			fb, tb := query.Bit(e.From), query.Bit(e.To)
			if visited&fb != 0 && visited&tb == 0 && frontier&fb != 0 {
				if next&tb == 0 {
					children[e.From] = append(children[e.From], forestEdge{child: e.To, dir: graph.Forward, label: e.Label})
					next |= tb
				}
			} else if visited&tb != 0 && visited&fb == 0 && frontier&tb != 0 {
				if next&fb == 0 {
					children[e.To] = append(children[e.To], forestEdge{child: e.From, dir: graph.Backward, label: e.Label})
					next |= fb
				}
			}
		}
		if next == 0 {
			break // disconnected (rejected upstream)
		}
		visited |= next
		frontier = next
	}

	// Core matching order: max-degree first, then connected expansion.
	var order []int
	var mask query.Mask
	for mask != core {
		best, bestDeg := -1, -1
		for v := 0; v < n; v++ {
			if core&query.Bit(v) == 0 || mask&query.Bit(v) != 0 {
				continue
			}
			connected := mask == 0 || len(q.EdgesBetween(mask, v)) > 0
			if !connected && bits.OnesCount32(mask) > 0 {
				continue
			}
			if d := q.Degree(v); d > bestDeg {
				best, bestDeg = v, d
			}
		}
		if best < 0 {
			break
		}
		order = append(order, best)
		mask |= query.Bit(best)
	}
	return children, order
}

func coreCandidates(g graph.View, q *query.Graph, u int, assign []graph.VertexID, bound query.Mask, candOK func(int, graph.VertexID) bool) []graph.VertexID {
	var best []graph.VertexID
	have := false
	for _, e := range q.Edges {
		var list []graph.VertexID
		if e.From == u && bound&query.Bit(e.To) != 0 {
			list = g.Neighbors(assign[e.To], graph.Backward, e.Label, q.Vertices[u].Label, nil)
		} else if e.To == u && bound&query.Bit(e.From) != 0 {
			list = g.Neighbors(assign[e.From], graph.Forward, e.Label, q.Vertices[u].Label, nil)
		} else {
			continue
		}
		if !have || len(list) < len(best) {
			best, have = list, true
		}
	}
	if have {
		var out []graph.VertexID
		for _, v := range best {
			if candOK(u, v) {
				out = append(out, v)
			}
		}
		return out
	}
	var out []graph.VertexID
	for v := 0; v < g.NumVertices(); v++ {
		if candOK(u, graph.VertexID(v)) {
			out = append(out, graph.VertexID(v))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func coreConsistent(g graph.View, q *query.Graph, u int, v graph.VertexID, assign []graph.VertexID, bound query.Mask) bool {
	for _, e := range q.Edges {
		if e.From == u && bound&query.Bit(e.To) != 0 {
			if !g.HasEdge(v, assign[e.To], e.Label) {
				return false
			}
		} else if e.To == u && bound&query.Bit(e.From) != 0 {
			if !g.HasEdge(assign[e.From], v, e.Label) {
				return false
			}
		}
	}
	return true
}
