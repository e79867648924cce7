package exec

import (
	"context"
	"testing"

	"graphflow/internal/datagen"
	"graphflow/internal/graph"
	"graphflow/internal/plan"
	"graphflow/internal/query"
)

func TestFastCountMatchesExact(t *testing.T) {
	g := datagen.Epinions(1)
	for _, j := range []int{1, 3, 4, 5} {
		q := query.Benchmark(j)
		// Any WCO order built from the first edge.
		order := connectedOrderForTest(q)
		p := buildWCO(t, q, order)
		slow, slowProf, err := countPlan(g, p, RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		fast, fastProf, err := countPlan(g, p, RunConfig{FastCount: true})
		if err != nil {
			t.Fatal(err)
		}
		if fast != slow {
			t.Errorf("Q%d: fast count = %d, exact = %d", j, fast, slow)
		}
		if fastProf.Matches != slow {
			t.Errorf("Q%d: fast profile matches = %d", j, fastProf.Matches)
		}
		// Factorized counting does strictly less enumeration work but the
		// same intersections: i-cost must match.
		if fastProf.ICost != slowProf.ICost {
			t.Errorf("Q%d: i-cost changed: fast=%d slow=%d", j, fastProf.ICost, slowProf.ICost)
		}
	}
}

func TestFastCountScanOnly(t *testing.T) {
	g := datagen.Amazon(1)
	q := query.MustParse("a->b")
	p := &plan.Plan{Query: q, Root: plan.NewScan(q, q.Edges[0])}
	fast, _, err := countPlan(g, p, RunConfig{FastCount: true})
	if err != nil {
		t.Fatal(err)
	}
	if fast != int64(g.NumEdges()) {
		t.Errorf("fast scan count = %d, want %d", fast, g.NumEdges())
	}
}

func TestFastCountIgnoredWithEmit(t *testing.T) {
	// Run with an emit callback must still enumerate every tuple even when
	// FastCount is set.
	g := datagen.Amazon(1)
	q := query.Q1()
	p := buildWCO(t, q, []int{0, 1, 2})
	want, _, err := countPlan(g, p, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	_, err = Must(t, g, p).RunCtx(context.Background(), RunConfig{FastCount: true}, func([]graph.VertexID) bool {
		n++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Errorf("emit with FastCount enumerated %d, want %d", n, want)
	}
}

// connectedOrderForTest returns a valid QVO starting at edge 0.
func connectedOrderForTest(q *query.Graph) []int {
	e := q.Edges[0]
	order := []int{e.From, e.To}
	mask := query.Bit(e.From) | query.Bit(e.To)
	for len(order) < q.NumVertices() {
		for v := 0; v < q.NumVertices(); v++ {
			if mask&query.Bit(v) != 0 || len(q.EdgesBetween(mask, v)) == 0 {
				continue
			}
			order = append(order, v)
			mask |= query.Bit(v)
			break
		}
	}
	return order
}
