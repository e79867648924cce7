package optimizer_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"graphflow/internal/bench"
	"graphflow/internal/catalogue"
	"graphflow/internal/optimizer"
	"graphflow/internal/query"
)

// TestOneEstimate holds the catalogue's cardinality estimate to the one
// the optimizer prices plans on: for 4–8-vertex planning patterns and for
// Q1–Q14 on both golden graphs, Catalogue.EstimateCardinality of a query
// equals, bit for bit, the EstimatedCardinality of the plan Optimize
// picks for its canonical form, and so does its estimate of three
// respellings of the query (vertices renumbered, edges shuffled).
func TestOneEstimate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(cat *catalogue.Catalogue, q *query.Graph) {
		t.Helper()
		canon, _ := q.Canonical()
		p, err := optimizer.Optimize(canon, optimizer.Options{Catalogue: cat})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want := p.EstimatedCardinality
		spellings := []*query.Graph{q}
		for range 3 {
			spellings = append(spellings, respell(q, rng))
		}
		for _, s := range spellings {
			if got := cat.EstimateCardinality(s); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: EstimateCardinality %v, the plan's EstimatedCardinality %v", s, got, want)
			}
		}
	}
	g := bench.PlanningGraph(1)
	cat := bench.PlanningCatalogue(g)
	for n := 4; n <= 8; n++ {
		for _, q := range bench.PlanningQueries(g, n, 50) {
			check(cat, q)
		}
	}
	for _, name := range []string{"epinions", "amazon"} {
		for j := 1; j <= 14; j++ {
			check(optimizer.GoldenCatalogue(name), query.Benchmark(j))
		}
	}
}

// respell returns an isomorphic copy of q: vertices renumbered by a
// random permutation and renamed, edges remapped and shuffled.
func respell(q *query.Graph, rng *rand.Rand) *query.Graph {
	perm := rng.Perm(len(q.Vertices)) // perm[old] = new index
	out := &query.Graph{Vertices: make([]query.Vertex, len(q.Vertices))}
	for old, v := range perm {
		out.Vertices[v] = query.Vertex{Name: fmt.Sprintf("v%d", v), Label: q.Vertices[old].Label}
	}
	for _, e := range q.Edges {
		out.Edges = append(out.Edges, query.Edge{From: perm[e.From], To: perm[e.To], Label: e.Label})
	}
	rng.Shuffle(len(out.Edges), func(i, j int) { out.Edges[i], out.Edges[j] = out.Edges[j], out.Edges[i] })
	return out
}
