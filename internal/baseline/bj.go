// Package baseline implements the comparison systems of the paper's
// evaluation: an edge-at-a-time binary-join engine standing in for Neo4j
// (Appendix D), a CFL-style subgraph matcher (Appendix C), and a
// PostgreSQL-style independence-assumption cardinality estimator
// (Appendix B).
package baseline

import (
	"fmt"

	"graphflow/internal/graph"
	"graphflow/internal/query"
)

// BJStats profiles one edge-at-a-time evaluation.
type BJStats struct {
	// Intermediate is the total number of intermediate tuples
	// materialised across join steps.
	Intermediate int64
	// Expansions counts adjacency expansions; Filters counts edge-
	// existence checks used to close cycles.
	Expansions, Filters int64
}

// BJConfig controls the binary-join baseline.
type BJConfig struct {
	// EdgeOrder fixes the join order (indices into q.Edges); nil picks a
	// greedy connected order that expands before closing, the plan shape
	// the paper attributes to BJ-only optimizers on cyclic queries (open
	// triangles first, then closing filters).
	EdgeOrder []int
	// MaxIntermediate aborts when an intermediate relation exceeds this
	// many tuples (0 = unlimited), emulating the paper's Mm (out of
	// memory) entries.
	MaxIntermediate int64
	// EagerClose applies closing edges as soon as both endpoints are
	// bound (a smarter BJ optimizer); false postpones them to the end,
	// the open-triangle behaviour.
	EagerClose bool
}

// ErrTooLarge is returned when MaxIntermediate is exceeded.
var ErrTooLarge = fmt.Errorf("baseline: intermediate result exceeds limit")

// BJCount evaluates q on g one query edge at a time using only binary
// joins over edge lists — no multiway intersections, no sorted-list
// assumptions. This is the query-edge(s)-at-a-time approach of Section 1.
func BJCount(g *graph.Graph, q *query.Graph, cfg BJConfig) (int64, BJStats, error) {
	var stats BJStats
	order := cfg.EdgeOrder
	if order == nil {
		order = greedyEdgeOrder(q, cfg.EagerClose)
	}
	if len(order) != len(q.Edges) {
		return 0, stats, fmt.Errorf("baseline: edge order must cover all %d edges", len(q.Edges))
	}

	// Current relation: tuples over the bound vertex set.
	bound := map[int]int{} // query vertex -> slot
	var tuples [][]graph.VertexID

	first := q.Edges[order[0]]
	bound[first.From] = 0
	bound[first.To] = 1
	g.Edges(func(src, dst graph.VertexID, el graph.Label) bool {
		if el != first.Label {
			return true
		}
		if g.VertexLabel(src) != q.Vertices[first.From].Label || g.VertexLabel(dst) != q.Vertices[first.To].Label {
			return true
		}
		tuples = append(tuples, []graph.VertexID{src, dst})
		return true
	})
	stats.Intermediate += int64(len(tuples))

	for _, ei := range order[1:] {
		e := q.Edges[ei]
		fromSlot, fromBound := bound[e.From]
		toSlot, toBound := bound[e.To]
		var next [][]graph.VertexID
		switch {
		case fromBound && toBound:
			// Closing join: filter by edge existence.
			for _, t := range tuples {
				stats.Filters++
				if g.HasEdge(t[fromSlot], t[toSlot], e.Label) {
					next = append(next, t)
				}
			}
		case fromBound:
			// Expand forward.
			slot := len(bound)
			bound[e.To] = slot
			for _, t := range tuples {
				stats.Expansions++
				for _, w := range g.Neighbors(t[fromSlot], graph.Forward, e.Label, q.Vertices[e.To].Label, nil) {
					nt := make([]graph.VertexID, len(t)+1)
					copy(nt, t)
					nt[slot] = w
					next = append(next, nt)
				}
			}
		case toBound:
			// Expand backward.
			slot := len(bound)
			bound[e.From] = slot
			for _, t := range tuples {
				stats.Expansions++
				for _, w := range g.Neighbors(t[toSlot], graph.Backward, e.Label, q.Vertices[e.From].Label, nil) {
					nt := make([]graph.VertexID, len(t)+1)
					copy(nt, t)
					nt[slot] = w
					next = append(next, nt)
				}
			}
		default:
			return 0, stats, fmt.Errorf("baseline: edge order disconnects at edge %d", ei)
		}
		tuples = next
		stats.Intermediate += int64(len(tuples))
		if cfg.MaxIntermediate > 0 && int64(len(tuples)) > cfg.MaxIntermediate {
			return 0, stats, ErrTooLarge
		}
	}
	return int64(len(tuples)), stats, nil
}

// greedyEdgeOrder returns a connected edge order. With eagerClose, closing
// edges (both endpoints bound) are taken as soon as available; otherwise
// they are postponed until no expansion remains — producing the
// open-cycle-then-close plans of BJ-only systems.
func greedyEdgeOrder(q *query.Graph, eagerClose bool) []int {
	n := len(q.Edges)
	used := make([]bool, n)
	var order []int
	var boundMask query.Mask

	take := func(i int) {
		used[i] = true
		order = append(order, i)
		boundMask |= query.Bit(q.Edges[i].From) | query.Bit(q.Edges[i].To)
	}
	take(0)
	for len(order) < n {
		closing, expanding := -1, -1
		for i, e := range q.Edges {
			if used[i] {
				continue
			}
			fb := boundMask&query.Bit(e.From) != 0
			tb := boundMask&query.Bit(e.To) != 0
			switch {
			case fb && tb:
				if closing < 0 {
					closing = i
				}
			case fb || tb:
				if expanding < 0 {
					expanding = i
				}
			}
		}
		switch {
		case eagerClose && closing >= 0:
			take(closing)
		case expanding >= 0:
			take(expanding)
		case closing >= 0:
			take(closing)
		default:
			// Disconnected query (unsupported upstream); take anything to
			// terminate, BJCount will report the error.
			for i := range used {
				if !used[i] {
					take(i)
					break
				}
			}
		}
	}
	return order
}
