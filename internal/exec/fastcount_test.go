package exec

import (
	"context"
	"testing"

	"graphflow/internal/datagen"
	"graphflow/internal/graph"
	"graphflow/internal/plan"
	"graphflow/internal/query"
)

// TestFastCountMatchesExact holds a count — the last stage adds the size
// of what it would fan out, or a factorized tail its products — to the
// rows the same plan enumerates through emit.
func TestFastCountMatchesExact(t *testing.T) {
	g := datagen.Epinions(1)
	for _, j := range []int{1, 3, 4, 5} {
		q := query.Benchmark(j)
		// Any WCO order built from the first edge.
		order := connectedOrderForTest(q)
		cp := Must(t, g, buildWCO(t, q, order))
		var slow int64
		slowProf, err := cp.RunCtx(context.Background(), RunConfig{NoFactorize: true}, 0, func([]graph.VertexID) bool {
			slow++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []RunConfig{{NoFactorize: true}, {}} {
			fast, fastProf, err := cp.CountCtx(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if fast != slow {
				t.Errorf("Q%d %+v: count = %d, enumerated = %d", j, cfg, fast, slow)
			}
			if fastProf.Matches != slow {
				t.Errorf("Q%d %+v: profile matches = %d", j, cfg, fastProf.Matches)
			}
			// Counting the last stage does less enumeration work but the
			// same intersections: i-cost must match.
			if cfg.NoFactorize && fastProf.ICost != slowProf.ICost {
				t.Errorf("Q%d: i-cost changed: count=%d enumerated=%d", j, fastProf.ICost, slowProf.ICost)
			}
		}
	}
}

func TestFastCountScanOnly(t *testing.T) {
	g := datagen.Amazon(1)
	q := query.MustParse("a->b")
	p := &plan.Plan{Query: q, Root: plan.NewScan(q, q.Edges[0])}
	fast, _, err := countPlan(g, p, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if fast != int64(g.NumEdges()) {
		t.Errorf("fast scan count = %d, want %d", fast, g.NumEdges())
	}
}

func TestFastCountIgnoredWithEmit(t *testing.T) {
	// A run with an emit callback enumerates every tuple; only a run
	// without one counts.
	g := datagen.Amazon(1)
	q := query.Q1()
	p := buildWCO(t, q, []int{0, 1, 2})
	want, _, err := countPlan(g, p, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	_, err = Must(t, g, p).RunCtx(context.Background(), RunConfig{}, 0, func([]graph.VertexID) bool {
		n++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Errorf("emit enumerated %d, want %d", n, want)
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
