package query

import "graphflow/internal/graph"

// RefCount counts the matches of q in g by straightforward backtracking.
// It is the correctness oracle for every engine in the repository: slow,
// simple, and obviously right.
//
// Match semantics are the paper's join semantics (homomorphisms): a match
// assigns a data vertex to every query vertex such that every query edge
// maps to a data edge with matching labels. Distinct query vertices may map
// to the same data vertex unless an edge constraint forbids it (the store
// drops self-loops, so adjacent query vertices always bind distinct data
// vertices). This is exactly the semantics of the multiway self-join
// formulation in Section 1. A query vertex labelled graph.WildcardLabel
// binds a data vertex of any label.
func RefCount(g graph.View, q *Graph) int64 {
	return RefEnumerate(g, q, nil)
}

// RefEnumerate counts matches and, if emit is non-nil, calls it with each
// complete assignment (indexed by query vertex). The assignment slice is
// reused; callers must copy it to retain it.
func RefEnumerate(g graph.View, q *Graph, emit func(assignment []graph.VertexID)) int64 {
	n := len(q.Vertices)
	if n == 0 {
		return 0
	}
	order := connectedOrder(q)
	assign := make([]graph.VertexID, n)
	bound := make([]bool, n)
	var count int64

	var rec func(pos int)
	rec = func(pos int) {
		if pos == n {
			count++
			if emit != nil {
				emit(assign)
			}
			return
		}
		v := order[pos]
		// Candidates: constrain by one already-bound neighbour's adjacency
		// if available, else all vertices with the right label.
		candidates := candidateList(g, q, v, assign, bound)
		for _, c := range candidates {
			if !consistent(g, q, v, c, assign, bound) {
				continue
			}
			assign[v] = c
			bound[v] = true
			rec(pos + 1)
			bound[v] = false
		}
	}
	rec(0)
	return count
}

// connectedOrder returns a vertex order in which every vertex after the
// first has at least one earlier neighbour (queries are connected).
func connectedOrder(q *Graph) []int {
	n := len(q.Vertices)
	order := make([]int, 0, n)
	inOrder := make([]bool, n)
	// Start from the max-degree vertex to prune early.
	start, bestDeg := 0, -1
	for v := 0; v < n; v++ {
		if d := q.Degree(v); d > bestDeg {
			start, bestDeg = v, d
		}
	}
	order = append(order, start)
	inOrder[start] = true
	for len(order) < n {
		next, nextDeg := -1, -1
		for v := 0; v < n; v++ {
			if inOrder[v] {
				continue
			}
			connected := false
			for _, e := range q.Edges {
				if (e.From == v && inOrder[e.To]) || (e.To == v && inOrder[e.From]) {
					connected = true
					break
				}
			}
			if connected && q.Degree(v) > nextDeg {
				next, nextDeg = v, q.Degree(v)
			}
		}
		if next < 0 { // disconnected query: just take any remaining vertex
			for v := 0; v < n; v++ {
				if !inOrder[v] {
					next = v
					break
				}
			}
		}
		order = append(order, next)
		inOrder[next] = true
	}
	return order
}

// candidateList returns candidate data vertices for query vertex v given
// the current partial assignment.
func candidateList(g graph.View, q *Graph, v int, assign []graph.VertexID, bound []bool) []graph.VertexID {
	// Prefer the smallest adjacency list of a bound neighbour.
	var best []graph.VertexID
	haveBest := false
	for _, e := range q.Edges {
		var list []graph.VertexID
		if e.From == v && bound[e.To] {
			list = g.Neighbors(assign[e.To], graph.Backward, labelOrWildcard(e.Label), vLabelOrWildcard(q, v), nil)
		} else if e.To == v && bound[e.From] {
			list = g.Neighbors(assign[e.From], graph.Forward, labelOrWildcard(e.Label), vLabelOrWildcard(q, v), nil)
		} else {
			continue
		}
		if !haveBest || len(list) < len(best) {
			best = list
			haveBest = true
		}
	}
	if haveBest {
		return best
	}
	// No bound neighbour (first vertex): every vertex with matching label.
	// Label 0 is the concrete "default" label, not a wildcard: unlabeled
	// graphs and queries both use 0 throughout, so exact matching is right.
	var all []graph.VertexID
	for u := 0; u < g.NumVertices(); u++ {
		if labelMatches(q, v, g.VertexLabel(graph.VertexID(u))) {
			all = append(all, graph.VertexID(u))
		}
	}
	return all
}

// labelMatches reports whether a data vertex labelled l may bind query
// vertex v: l is v's label, or v's label is graph.WildcardLabel.
func labelMatches(q *Graph, v int, l graph.Label) bool {
	want := q.Vertices[v].Label
	return want == graph.WildcardLabel || l == want
}

// consistent verifies all edges between v and bound vertices, and the label
// of the candidate.
func consistent(g graph.View, q *Graph, v int, c graph.VertexID, assign []graph.VertexID, bound []bool) bool {
	if !labelMatches(q, v, g.VertexLabel(c)) {
		return false
	}
	for _, e := range q.Edges {
		if e.From == v && bound[e.To] {
			if !g.HasEdge(c, assign[e.To], labelOrWildcard(e.Label)) {
				return false
			}
		} else if e.To == v && bound[e.From] {
			if !g.HasEdge(assign[e.From], c, labelOrWildcard(e.Label)) {
				return false
			}
		}
	}
	return true
}

// labelOrWildcard maps query label 0 (unlabeled) to an exact label-0 match:
// graphs and queries use label 0 consistently for "unlabeled", and labelled
// workloads always assign concrete labels, so 0 is an exact label here.
func labelOrWildcard(l graph.Label) graph.Label { return l }

func vLabelOrWildcard(q *Graph, v int) graph.Label { return q.Vertices[v].Label }
