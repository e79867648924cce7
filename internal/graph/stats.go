package graph

import "math/rand"

// DegreeStats summarises one direction of a graph's degree distribution.
type DegreeStats struct {
	Mean float64
	Max  int
	// P99 is the 99th-percentile degree (approximated from the exact degree
	// multiset; exact for the graph sizes used here).
	P99 int
}

// Stats captures the structural properties that drive query-vertex-ordering
// effects in the paper: forward/backward list size distributions and the
// clustering coefficient (cyclicity).
type Stats struct {
	Vertices   int
	Edges      int
	Out        DegreeStats
	In         DegreeStats
	Clustering float64 // sampled average local clustering coefficient (undirected view)
}

// ComputeStatsOf collects Stats of any View — notably live snapshots, so
// post-mutation stats reflect the delta overlay, not just the base CSR. It
// samples at most sampleVertices vertices for the clustering coefficient
// (all vertices if sampleVertices <= 0 or larger than the graph).
func ComputeStatsOf(g View, sampleVertices int, rng *rand.Rand) Stats {
	st := Stats{Vertices: g.NumVertices(), Edges: g.NumEdges()}
	st.Out = degreeStatsOf(g, Forward)
	st.In = degreeStatsOf(g, Backward)
	st.Clustering = SampleClusteringCoefficientOf(g, sampleVertices, rng)
	return st
}

func degreeStatsOf(g View, dir Direction) DegreeStats {
	var ds DegreeStats
	n := g.NumVertices()
	if n == 0 {
		return ds
	}
	degs := make([]int, n)
	total := 0
	for v := 0; v < n; v++ {
		var d int
		if dir == Forward {
			d = g.OutDegree(VertexID(v))
		} else {
			d = g.InDegree(VertexID(v))
		}
		degs[v] = d
		total += d
		if d > ds.Max {
			ds.Max = d
		}
	}
	ds.Mean = float64(total) / float64(n)
	// nth_element-free percentile: counting since degrees are small ints.
	counts := make([]int, ds.Max+1)
	for _, d := range degs {
		counts[d]++
	}
	target := (99 * n) / 100
	seen := 0
	for d, c := range counts {
		seen += c
		if seen > target {
			ds.P99 = d
			break
		}
	}
	return ds
}

// SampleClusteringCoefficientOf estimates the average local clustering
// coefficient over the undirected view of g. It samples k vertices (all
// if k <= 0 or k >= n). A nil rng means deterministic iteration over the
// first vertices.
func SampleClusteringCoefficientOf(g View, k int, rng *rand.Rand) float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	if k <= 0 || k > n {
		k = n
	}
	var sum float64
	counted := 0
	var unbuf []VertexID
	for i := 0; i < k; i++ {
		var v VertexID
		if rng != nil {
			v = VertexID(rng.Intn(n))
		} else {
			v = VertexID(i)
		}
		unbuf = undirectedNeighborsOf(g, v, unbuf[:0])
		d := len(unbuf)
		if d < 2 {
			continue
		}
		links := 0
		for ai := 0; ai < d; ai++ {
			for bi := ai + 1; bi < d; bi++ {
				a, b := unbuf[ai], unbuf[bi]
				if g.HasEdge(a, b, WildcardLabel) || g.HasEdge(b, a, WildcardLabel) {
					links++
				}
			}
		}
		sum += 2 * float64(links) / float64(d*(d-1))
		counted++
	}
	if counted == 0 {
		return 0
	}
	return sum / float64(counted)
}

// undirectedNeighborsOf returns the deduplicated union of v's forward and
// backward neighbours across all labels.
func undirectedNeighborsOf(g View, v VertexID, buf []VertexID) []VertexID {
	buf = buf[:0]
	seen := make(map[VertexID]struct{})
	collect := func(list []VertexID) {
		for _, u := range list {
			if u == v {
				continue
			}
			if _, ok := seen[u]; !ok {
				seen[u] = struct{}{}
				buf = append(buf, u)
			}
		}
	}
	collect(g.Neighbors(v, Forward, WildcardLabel, WildcardLabel, nil))
	collect(g.Neighbors(v, Backward, WildcardLabel, WildcardLabel, nil))
	return buf
}
