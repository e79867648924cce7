package ghd

import (
	"context"
	"math"
	"testing"

	"graphflow/internal/datagen"
	"graphflow/internal/exec"
	"graphflow/internal/graph"
	"graphflow/internal/plan"
	"graphflow/internal/query"
)

// countPlan compiles p against g and counts its matches.
func countPlan(g graph.View, p *plan.Plan) (int64, exec.Profile, error) {
	cp, err := exec.Compile(g, p)
	if err != nil {
		return 0, exec.Profile{}, err
	}
	return cp.CountCtx(context.Background(), exec.RunConfig{})
}

func TestSolveLPBasic(t *testing.T) {
	// min x1 + x2 s.t. x1 + x2 >= 1, x1 >= 0.5 -> opt 1 (x1=0.5..1).
	opt, x, err := solveLP(
		[]float64{1, 1},
		[][]float64{{1, 1}, {1, 0}},
		[]float64{1, 0.5},
	)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(opt-1) > 1e-6 {
		t.Errorf("opt = %v, want 1", opt)
	}
	if x[0] < 0.5-1e-9 {
		t.Errorf("x = %v violates x1 >= 0.5", x)
	}
}

func TestSolveLPInfeasible(t *testing.T) {
	// x1 >= 1 and -x1 >= 0 is infeasible (x1 <= 0 and x1 >= 1).
	_, _, err := solveLP([]float64{1}, [][]float64{{1}, {-1}}, []float64{1, 0})
	if err == nil {
		t.Error("expected infeasibility")
	}
}

func TestFractionalEdgeCoverKnownValues(t *testing.T) {
	cases := []struct {
		q    *query.Graph
		want float64
	}{
		{query.Q1(), 1.5},  // triangle: AGM exponent 3/2
		{query.Q2(), 2.0},  // 4-cycle: 2
		{query.Q12(), 3.0}, // 6-cycle: 3
		{query.MustParse("a->b"), 1.0},
		{query.Q11(), 3.0}, // 4-path: n - max matching = 5 - 2 = 3
		{query.Q6(), 2.0},  // 4-clique: 4/2 = 2
		{query.Q7(), 2.5},  // 5-clique: 5/2
	}
	for _, c := range cases {
		got := FractionalEdgeCover(c.q, query.AllMask(c.q.NumVertices()))
		if math.Abs(got-c.want) > 1e-6 {
			t.Errorf("fec(%s) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestFractionalEdgeCoverInfeasibleBag(t *testing.T) {
	q := query.Q1()
	// Bag {a1, a2} of the triangle has edge a1->a2: feasible, cover 1.
	if got := FractionalEdgeCover(q, query.Bit(0)|query.Bit(1)); math.Abs(got-1) > 1e-6 {
		t.Errorf("edge bag cover = %v, want 1", got)
	}
}

func TestEnumerateSingleAndTwoBag(t *testing.T) {
	ds := Enumerate(query.Q8(), 2)
	if len(ds) == 0 {
		t.Fatal("no decompositions")
	}
	// Q8 (two triangles sharing a3): the two-triangle decomposition has
	// width 1.5, beating the single bag.
	best := MinWidth(ds)
	if len(best) == 0 {
		t.Fatal("no min-width decomposition")
	}
	if math.Abs(best[0].Width-1.5) > 1e-6 {
		t.Errorf("Q8 min width = %v, want 1.5", best[0].Width)
	}
	if len(best[0].Bags) != 2 {
		t.Errorf("Q8 best decomposition should have 2 bags, got %d", len(best[0].Bags))
	}
}

func TestEnumerateSingleBagForClique(t *testing.T) {
	// Cliques cannot be usefully decomposed: the single bag must win.
	ds := MinWidth(Enumerate(query.Q6(), 2))
	if len(ds[0].Bags) != 1 {
		t.Errorf("4-clique min-width GHD should be a single bag, got %d bags (width %v)", len(ds[0].Bags), ds[0].Width)
	}
}

func TestLexicographicOrders(t *testing.T) {
	q := query.Q1()
	d := Decomposition{Bags: []query.Mask{query.AllMask(3)}, Parent: []int{-1}}
	orders := LexicographicOrders(q, d)
	want := []int{0, 1, 2} // a1, a2, a3 — already connected
	got := orders[0]
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lex order = %v, want %v", got, want)
		}
	}
}

func TestBuildPlanSingleBagMatchesReference(t *testing.T) {
	g := datagen.Amazon(1)
	q := query.Q1()
	ds := MinWidth(Enumerate(q, 2))
	p, err := BuildPlan(q, ds[0], LexicographicOrders(q, ds[0]))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := countPlan(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if want := query.RefCount(g, q); got != want {
		t.Errorf("EH triangle count = %d, want %d", got, want)
	}
}

func TestBuildPlanTwoBagMatchesReference(t *testing.T) {
	g := datagen.CoPurchase(datagen.CoPurchaseConfig{N: 400, K: 4, Rewire: 0.2, Seed: 21})
	q := query.Q8()
	ds := MinWidth(Enumerate(q, 2))
	var twoBag *Decomposition
	for i := range ds {
		if len(ds[i].Bags) == 2 {
			twoBag = &ds[i]
			break
		}
	}
	if twoBag == nil {
		t.Fatal("no 2-bag min-width GHD for Q8")
	}
	p, err := BuildPlan(q, *twoBag, LexicographicOrders(q, *twoBag))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := countPlan(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if want := query.RefCount(g, q); got != want {
		t.Errorf("EH two-bag count = %d, want %d", got, want)
	}
}

func TestBuildPlanQ10(t *testing.T) {
	// Q10's projection-compliant GHD: diamond + triangle joined on a4
	// (Appendix A). Verify a 2-bag plan evaluates correctly.
	g := datagen.CoPurchase(datagen.CoPurchaseConfig{N: 300, K: 4, Rewire: 0.25, Seed: 23})
	q := query.Q10()
	ds := MinWidth(Enumerate(q, 2))
	if len(ds) == 0 {
		t.Fatal("no decompositions")
	}
	p, err := BuildPlan(q, ds[0], LexicographicOrders(q, ds[0]))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := countPlan(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if want := query.RefCount(g, q); got != want {
		t.Errorf("EH Q10 count = %d, want %d (decomp %v)", got, want, ds[0])
	}
}

func TestThreeBagChains(t *testing.T) {
	// A 6-path decomposes into three overlapping 3-vertex path bags.
	q := query.Q13()
	ds := Enumerate(q, 3)
	found := false
	for _, d := range ds {
		if len(d.Bags) == 3 {
			found = true
			// Verify correctness of one such plan.
			g := datagen.CoPurchase(datagen.CoPurchaseConfig{N: 200, K: 3, Rewire: 0.3, Seed: 29})
			p, err := BuildPlan(q, d, LexicographicOrders(q, d))
			if err != nil {
				continue
			}
			got, _, err := countPlan(g, p)
			if err != nil {
				t.Fatal(err)
			}
			if want := query.RefCount(g, q); got != want {
				t.Errorf("3-bag chain count = %d, want %d (%v)", got, want, d)
			}
			break
		}
	}
	if !found {
		t.Error("no 3-bag chain enumerated for the 6-path")
	}
}
