package baseline

import (
	"math"
	"testing"

	"graphflow/internal/datagen"
	"graphflow/internal/graph"
	"graphflow/internal/query"
)

var testGraphs = map[string]*graph.Graph{
	"copurchase": datagen.CoPurchase(datagen.CoPurchaseConfig{N: 300, K: 4, Rewire: 0.25, Seed: 31}),
	"social":     datagen.Social(datagen.SocialConfig{N: 250, MPerV: 5, Closure: 0.3, Reciprocal: 0.3, Seed: 32}),
}

func TestBJCountMatchesReference(t *testing.T) {
	for name, g := range testGraphs {
		for _, j := range []int{1, 2, 3, 4, 8, 11} {
			q := query.Benchmark(j)
			got, stats, err := BJCount(g, q, BJConfig{})
			if err != nil {
				t.Fatalf("%s Q%d: %v", name, j, err)
			}
			want := query.RefCount(g, q)
			if got != want {
				t.Errorf("%s Q%d: BJ count = %d, want %d", name, j, got, want)
			}
			if stats.Intermediate == 0 {
				t.Errorf("%s Q%d: no intermediates recorded", name, j)
			}
		}
	}
}

func TestBJEagerCloseSameResultLessWork(t *testing.T) {
	g := testGraphs["social"]
	q := query.Q4()
	lazy, lazyStats, err := BJCount(g, q, BJConfig{})
	if err != nil {
		t.Fatal(err)
	}
	eager, eagerStats, err := BJCount(g, q, BJConfig{EagerClose: true})
	if err != nil {
		t.Fatal(err)
	}
	if lazy != eager {
		t.Fatalf("eager close changed result: %d vs %d", eager, lazy)
	}
	if eagerStats.Intermediate > lazyStats.Intermediate {
		t.Errorf("eager close should not increase intermediates: eager=%d lazy=%d",
			eagerStats.Intermediate, lazyStats.Intermediate)
	}
}

func TestBJMaxIntermediate(t *testing.T) {
	g := testGraphs["social"]
	_, _, err := BJCount(g, query.Q4(), BJConfig{MaxIntermediate: 10})
	if err != ErrTooLarge {
		t.Errorf("expected ErrTooLarge, got %v", err)
	}
}

func TestBJExplicitOrder(t *testing.T) {
	g := testGraphs["copurchase"]
	q := query.Q1()
	// Close the triangle last: edges 0 (a1a2), 1 (a2a3), then 2 (a1a3).
	got, _, err := BJCount(g, q, BJConfig{EdgeOrder: []int{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if want := query.RefCount(g, q); got != want {
		t.Errorf("explicit order count = %d, want %d", got, want)
	}
	// Bad orders are rejected.
	if _, _, err := BJCount(g, q, BJConfig{EdgeOrder: []int{0}}); err == nil {
		t.Error("short edge order should error")
	}
}

func TestCFLCountMatchesReference(t *testing.T) {
	for name, g := range testGraphs {
		for _, j := range []int{1, 2, 3, 4, 5, 8, 10, 11, 13} {
			q := query.Benchmark(j)
			got := CFLCountUpTo(g, q, 0)
			want := query.RefCount(g, q)
			if got != want {
				t.Errorf("%s Q%d: CFL count = %d, want %d", name, j, got, want)
			}
		}
	}
}

func TestCFLLabeled(t *testing.T) {
	g := datagen.Relabel(testGraphs["social"], 3, 4, 41)
	q := query.WithRandomEdgeLabels(query.Q3(), 4, 42)
	// Also label the query vertices.
	q.Vertices[0].Label = 1
	got := CFLCountUpTo(g, q, 0)
	want := query.RefCount(g, q)
	if got != want {
		t.Errorf("labeled CFL count = %d, want %d", got, want)
	}
}

func TestCFLCore(t *testing.T) {
	// Tailed triangle: core is the triangle, a4 in the forest.
	core := coreMask(query.Q3())
	if core != query.Bit(0)|query.Bit(1)|query.Bit(2) {
		t.Errorf("Q3 core = %b, want triangle", core)
	}
	// Path: core collapses to one vertex.
	core = coreMask(query.Q11())
	if popcount(core) != 1 {
		t.Errorf("path core = %b, want single vertex", core)
	}
	// 6-cycle: everything is core.
	core = coreMask(query.Q12())
	if core != query.AllMask(6) {
		t.Errorf("6-cycle core = %b, want all", core)
	}
}

func popcount(m query.Mask) int {
	c := 0
	for m != 0 {
		m &= m - 1
		c++
	}
	return c
}

func TestCFLCountUpTo(t *testing.T) {
	g := testGraphs["copurchase"]
	q := query.Q11() // plenty of path matches
	full := CFLCountUpTo(g, q, 0)
	if full < 100 {
		t.Skipf("too few matches (%d) for cap test", full)
	}
	capped := CFLCountUpTo(g, q, 50)
	if capped != 50 {
		t.Errorf("capped count = %d, want 50", capped)
	}
}

func TestPGEstimateSingleEdge(t *testing.T) {
	g := testGraphs["copurchase"]
	q := query.MustParse("a->b")
	if got := PGEstimate(g, q); got != float64(g.NumEdges()) {
		t.Errorf("PG single edge = %v, want %d", got, g.NumEdges())
	}
}

func TestPGEstimateTriangleIndependence(t *testing.T) {
	g := testGraphs["copurchase"]
	q := query.Q1()
	m, n := float64(g.NumEdges()), float64(g.NumVertices())
	want := m * m * m / (n * n * n)
	if got := PGEstimate(g, q); math.Abs(got-want) > 1e-6*want {
		t.Errorf("PG triangle = %v, want %v", got, want)
	}
}

func TestQError(t *testing.T) {
	if q := QError(10, 5); q != 2 {
		t.Errorf("QError(10,5) = %v", q)
	}
	if q := QError(5, 10); q != 2 {
		t.Errorf("QError(5,10) = %v", q)
	}
	if q := QError(0, 0); q != 1 {
		t.Errorf("QError(0,0) = %v", q)
	}
	if q := QError(0, 5); !math.IsInf(q, 1) {
		t.Errorf("QError(0,5) = %v", q)
	}
}
