package adaptive_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"graphflow/internal/adaptive"
	"graphflow/internal/catalogue"
	"graphflow/internal/datagen"
	"graphflow/internal/exec"
	"graphflow/internal/graph"
	"graphflow/internal/optimizer"
	"graphflow/internal/plan"
	"graphflow/internal/query"
)

var (
	testG   = datagen.Amazon(1)
	testCat = catalogue.Build(testG, catalogue.Config{H: 3, Z: 300, MaxInstances: 200, Seed: 11})
)

// fixedWCO builds the WCO plan for q in the given order.
func fixedWCO(t testing.TB, q *query.Graph, order []int) *plan.Plan {
	t.Helper()
	var first *query.Edge
	for i := range q.Edges {
		e := q.Edges[i]
		if (e.From == order[0] && e.To == order[1]) || (e.From == order[1] && e.To == order[0]) {
			first = &e
			break
		}
	}
	if first == nil {
		t.Fatal("order does not start at an edge")
	}
	var node plan.Node = plan.NewScan(q, *first)
	for _, v := range order[2:] {
		ext, err := plan.NewExtend(q, node, v)
		if err != nil {
			t.Fatal(err)
		}
		node = ext
	}
	return &plan.Plan{Query: q, Root: node}
}

// run counts p's matches on g twice under cfg: as compiled, and with
// adaptive evaluation over at most maxOrderings candidates.
func run(t testing.TB, g graph.View, cat *catalogue.Catalogue, p *plan.Plan, cfg exec.RunConfig, maxOrderings int) (fixed, adapted exec.Profile, routes *adaptive.Routes) {
	t.Helper()
	cp, err := exec.Compile(g, p)
	if err != nil {
		t.Fatal(err)
	}
	_, fixed, err = cp.CountCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	routes = adaptive.Enumerate(p, cat, maxOrderings)
	n, adapted, err := cp.Adaptive(routes).CountCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n != adapted.Matches {
		t.Errorf("adaptive count %d, profile matches %d", n, adapted.Matches)
	}
	return fixed, adapted, routes
}

func TestEnumerate(t *testing.T) {
	q4 := query.Q4()
	p := fixedWCO(t, q4, []int{1, 2, 0, 3})
	r := adaptive.Enumerate(p, testCat, adaptive.MaxOrderings)
	if r == nil {
		t.Fatal("diamond-X WCO plan (2 extends) should be adaptable")
	}
	top := p.Root.(*plan.Extend)
	chain, source := []*plan.Extend{top.Child.(*plan.Extend), top}, top.Child.(*plan.Extend).Child
	if !reflect.DeepEqual(r.Chains[0], chain) {
		t.Error("the first candidate is not the plan's own chain")
	}
	for o, c := range r.Chains {
		if len(c) != len(chain) || c[0].Child != source {
			t.Errorf("candidate %d is not a chain of %d operators over the plan's source", o, len(chain))
		}
	}
	if adaptive.Enumerate(p, testCat, 1) != nil {
		t.Error("a cap of one ordering leaves nothing to choose between")
	}
	tri := fixedWCO(t, query.Q1(), []int{0, 1, 2})
	if adaptive.Enumerate(tri, testCat, adaptive.MaxOrderings) != nil {
		t.Error("triangle plan (1 extend) should not be adaptable")
	}
	// TestAdaptiveFallsBackWithoutChain: nothing to adapt is the plan itself.
	if cp, err := exec.Compile(testG, tri); err != nil || cp.Adaptive(nil) != cp {
		t.Errorf("the adaptive form of a plan without routes should be the compiled plan itself (err %v)", err)
	}
}

// TestAdaptiveMatchesFixedCounts (with TestAdaptiveRefCorrectness and
// TestAdaptiveHybridChain): orderings change the work, never the answer.
func TestAdaptiveMatchesFixedCounts(t *testing.T) {
	for _, j := range []int{2, 3, 4, 5, 6} {
		plans, err := optimizer.EnumerateWCOPlans(query.Benchmark(j), optimizer.Options{Catalogue: testCat})
		if err != nil {
			t.Fatalf("Q%d: %v", j, err)
		}
		fixed, adapted, _ := run(t, testG, testCat, plans[0].Plan, exec.RunConfig{}, adaptive.MaxOrderings)
		if adapted.Matches != fixed.Matches {
			t.Errorf("Q%d: adaptive count = %d, fixed = %d", j, adapted.Matches, fixed.Matches)
		}
	}
}

func TestAdaptiveRefCorrectness(t *testing.T) {
	small := datagen.CoPurchase(datagen.CoPurchaseConfig{N: 250, K: 4, Rewire: 0.25, Seed: 13})
	cat := catalogue.Build(small, catalogue.Config{H: 2, Z: 150, MaxInstances: 100, Seed: 5})
	q := query.Q4()
	_, adapted, _ := run(t, small, cat, fixedWCO(t, q, []int{0, 1, 2, 3}), exec.RunConfig{}, adaptive.MaxOrderings)
	if want := query.RefCount(small, q); adapted.Matches != want {
		t.Errorf("adaptive diamond-X = %d, reference = %d", adapted.Matches, want)
	}
}

// TestAdaptiveHybridChain: whatever the optimizer puts below the chain (a
// hash join, for Q10) runs as compiled; only the E/I operators above it
// are routed.
func TestAdaptiveHybridChain(t *testing.T) {
	p, err := optimizer.Optimize(query.Q10(), optimizer.Options{Catalogue: testCat})
	if err != nil {
		t.Fatal(err)
	}
	fixed, adapted, _ := run(t, testG, testCat, p, exec.RunConfig{}, adaptive.MaxOrderings)
	if adapted.Matches != fixed.Matches {
		t.Errorf("adaptive hybrid = %d, fixed = %d", adapted.Matches, fixed.Matches)
	}
}

// TestAdaptiveEmitLayout: whichever ordering matched a tuple, it is
// emitted in the plan root's layout — every query edge holds between the
// vertices at its endpoints' slots. Factorization is off: both orderings
// of the chain are stars, which a factorized run takes as one tail,
// without routing.
func TestAdaptiveEmitLayout(t *testing.T) {
	q := query.Q4()
	p := fixedWCO(t, q, []int{1, 2, 0, 3})
	routes := adaptive.Enumerate(p, testCat, adaptive.MaxOrderings)
	cp, err := exec.Compile(testG, p)
	if err != nil {
		t.Fatal(err)
	}
	slot := make([]int, q.NumVertices())
	for s, v := range p.Root.Out() {
		slot[v] = s
	}
	emitted := int64(0)
	prof, err := cp.Adaptive(routes).RunCtx(context.Background(), exec.RunConfig{NoFactorize: true}, func(tu []graph.VertexID) bool {
		emitted++
		for _, e := range q.Edges {
			if !testG.HasEdge(tu[slot[e.From]], tu[slot[e.To]], e.Label) {
				t.Fatalf("emitted %v is not a match in the root's layout %v: no edge a%d->a%d", tu, p.Root.Out(), e.From+1, e.To+1)
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Reroutes == 0 {
		t.Error("no tuple left the plan's own ordering: the layouts were never permuted")
	}
	if want := query.RefCount(testG, q); emitted != want {
		t.Errorf("emitted %d, reference %d", emitted, want)
	}
}

// TestAdaptiveBatchSizesAgree: where batch boundaries fall changes which
// rows share a dispatch, never the answer.
func TestAdaptiveBatchSizesAgree(t *testing.T) {
	p := fixedWCO(t, query.Q4(), []int{1, 2, 0, 3})
	for _, bs := range []int{-1, 1, 3, 64, 1024} {
		fixed, adapted, _ := run(t, testG, testCat, p, exec.RunConfig{BatchSize: bs}, adaptive.MaxOrderings)
		if adapted.Matches != fixed.Matches {
			t.Errorf("batch size %d: adaptive count = %d, fixed = %d", bs, adapted.Matches, fixed.Matches)
		}
	}
}

// TestRouterAdapts is the test a router that always picks the plan's own
// ordering fails: on a skewed graph, the worst fixed WCO plans of Q4 and
// Q5 — an ordering that is wrong for most tuples — must cost strictly
// less i-cost adaptively, with runs actually rerouted; and with a cap of
// one candidate the adaptive form is the fixed plan, counter for counter.
func TestRouterAdapts(t *testing.T) {
	g := datagen.Google(1)
	cat := catalogue.Build(g, catalogue.Config{H: 3, Z: 300, MaxInstances: 200, Seed: 7})
	for _, j := range []int{4, 5} {
		plans, err := optimizer.EnumerateWCOPlans(query.Benchmark(j), optimizer.Options{Catalogue: cat})
		if err != nil {
			t.Fatal(err)
		}
		worst := plans[len(plans)-1].Plan
		for _, cfg := range []exec.RunConfig{{NoFactorize: true}, {}, {Workers: 4}} {
			fixed, adapted, routes := run(t, g, cat, worst, cfg, adaptive.MaxOrderings)
			if routes == nil {
				t.Fatalf("Q%d: the worst plan has nothing to adapt", j)
			}
			if adapted.Matches != fixed.Matches {
				t.Errorf("Q%d %+v: adaptive count = %d, fixed = %d", j, cfg, adapted.Matches, fixed.Matches)
			}
			if adapted.Reroutes == 0 || adapted.ICost >= fixed.ICost {
				t.Errorf("Q%d %+v: %d runs rerouted, i-cost %d against the fixed plan's %d; want reroutes and strictly less work",
					j, cfg, adapted.Reroutes, adapted.ICost, fixed.ICost)
			}
			if cfg.Workers > 1 {
				continue // morsel scheduling moves cache hits between runs
			}
			fixed, capped, _ := run(t, g, cat, worst, cfg, 1)
			fixed.Stages, capped.Stages = exec.StageNanos{}, exec.StageNanos{}
			if capped != fixed {
				t.Errorf("Q%d %+v: one candidate should be the fixed plan, counter for counter:\n%+v\n%+v", j, cfg, capped, fixed)
			}
		}
	}
}

var (
	quickG = func() *graph.Graph {
		rng := rand.New(rand.NewSource(31))
		b := graph.NewBuilder(100)
		for i := 0; i < 600; i++ {
			b.AddEdge(graph.VertexID(rng.Intn(100)), graph.VertexID(rng.Intn(100)), 0)
		}
		return b.MustBuild()
	}()
	quickCat = catalogue.Build(quickG, catalogue.Config{H: 2, Z: 100, MaxInstances: 80, Seed: 3})
)

// adaptableQuery generates random 4-5 vertex connected queries (so WCO
// plans have chains of >=2 E/I operators).
type adaptableQuery struct{ Q *query.Graph }

// Generate implements quick.Generator.
func (adaptableQuery) Generate(rng *rand.Rand, _ int) reflect.Value {
	n := 4 + rng.Intn(2)
	q := &query.Graph{}
	for i := 0; i < n; i++ {
		q.Vertices = append(q.Vertices, query.Vertex{})
	}
	seen := map[[2]int]bool{}
	add := func(a, b int) {
		if a == b {
			return
		}
		k := [2]int{a, b}
		if a > b {
			k = [2]int{b, a}
		}
		if seen[k] {
			return
		}
		seen[k] = true
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		q.Edges = append(q.Edges, query.Edge{From: a, To: b})
	}
	for i := 1; i < n; i++ {
		add(i, rng.Intn(i))
	}
	for k := 0; k < 1+rng.Intn(n); k++ {
		add(rng.Intn(n), rng.Intn(n))
	}
	return reflect.ValueOf(adaptableQuery{q})
}

// TestQuickAdaptiveAlwaysMatchesFixed: ordering changes never change
// results, for arbitrary queries, plans across the cost range, every cap
// (TestQuickAdaptiveCapOne's single candidate among them) and the run
// configurations whose stage chains differ.
func TestQuickAdaptiveAlwaysMatchesFixed(t *testing.T) {
	cfgs := []exec.RunConfig{{NoFactorize: true}, {}, {BatchSize: 3, NoFactorize: true}, {BatchSize: 3}}
	f := func(aq adaptableQuery, pick uint8) bool {
		plans, err := optimizer.EnumerateWCOPlans(aq.Q, optimizer.Options{Catalogue: quickCat})
		if err != nil || len(plans) == 0 {
			return false
		}
		want := query.RefCount(quickG, aq.Q)
		cfg := cfgs[int(pick)%len(cfgs)]
		for _, i := range []int{0, len(plans) / 2, len(plans) - 1} {
			for _, maxOrderings := range []int{1, 2, adaptive.MaxOrderings} {
				fixed, adapted, _ := run(t, quickG, quickCat, plans[i].Plan, cfg, maxOrderings)
				if fixed.Matches != want || adapted.Matches != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
