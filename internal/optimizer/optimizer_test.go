package optimizer

import (
	stdcontext "context"
	"fmt"
	"math"
	"testing"

	"graphflow/internal/catalogue"
	"graphflow/internal/datagen"
	"graphflow/internal/exec"
	"graphflow/internal/graph"
	"graphflow/internal/plan"
	"graphflow/internal/query"
)

// testEnv builds a graph + catalogue pair once per test binary.
var (
	amazonG   = datagen.Amazon(1)
	amazonCat = catalogue.Build(amazonG, catalogue.Config{H: 3, Z: 500, MaxInstances: 300, Seed: 7})
	webG      = datagen.Google(1)
	webCat    = catalogue.Build(webG, catalogue.Config{H: 3, Z: 500, MaxInstances: 300, Seed: 7})
)

func amazonOpts() Options { return Options{Catalogue: amazonCat} }

// countPlan compiles p against g and counts its matches under cfg.
func countPlan(g graph.View, p *plan.Plan, cfg exec.RunConfig) (int64, exec.Profile, error) {
	cp, err := exec.Compile(g, p)
	if err != nil {
		return 0, exec.Profile{}, err
	}
	return cp.CountCtx(stdcontext.Background(), cfg)
}

func countWith(t *testing.T, g *graph.Graph, p *plan.Plan) int64 {
	t.Helper()
	n, _, err := countPlan(g, p, exec.RunConfig{})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	return n
}

func TestOptimizeAllBenchmarksCorrect(t *testing.T) {
	small := datagen.CoPurchase(datagen.CoPurchaseConfig{N: 300, K: 4, Rewire: 0.2, Seed: 5})
	smallCat := catalogue.Build(small, catalogue.Config{H: 2, Z: 200, MaxInstances: 100, Seed: 3})
	for j := 1; j <= 14; j++ {
		q := query.Benchmark(j)
		p, err := Optimize(q, amazonOpts())
		if err != nil {
			t.Fatalf("Q%d: Optimize: %v", j, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Q%d: invalid plan: %v", j, err)
		}
		if j >= 9 && testing.Short() {
			continue
		}
		// Correctness vs reference matcher on a downsized graph.
		ps, err := Optimize(q, Options{Catalogue: smallCat})
		if err != nil {
			t.Fatalf("Q%d small: %v", j, err)
		}
		got := countWith(t, small, ps)
		want := query.RefCount(small, q)
		if got != want {
			t.Errorf("Q%d: optimized plan count = %d, reference = %d\n%s", j, got, want, ps.Describe())
		}
	}
}

func TestOptimizePicksWCOForTriangle(t *testing.T) {
	p, err := Optimize(query.Q1(), amazonOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsWCO() {
		t.Errorf("triangle plan should be WCO:\n%s", p.Describe())
	}
}

func TestOptimizePicksWCOForClique(t *testing.T) {
	// Densely cyclic queries favour WCO plans (Section 8.2).
	p, err := Optimize(query.Q6(), amazonOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsWCO() {
		t.Errorf("4-clique plan should be WCO:\n%s", p.Describe())
	}
}

func TestWCOOnlyOption(t *testing.T) {
	p, err := Optimize(query.Q8(), Options{Catalogue: amazonCat, WCOOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsWCO() {
		t.Errorf("WCOOnly produced a non-WCO plan:\n%s", p.Describe())
	}
}

func TestEnumerateWCOPlansTriangle(t *testing.T) {
	plans, err := EnumerateWCOPlans(query.Q1(), amazonOpts())
	if err != nil {
		t.Fatal(err)
	}
	// The asymmetric triangle has exactly 3 distinct QVOs (Section 3.2.1).
	if len(plans) != 3 {
		t.Fatalf("triangle WCO plans = %d, want 3", len(plans))
	}
	// Sorted by cost.
	for i := 1; i < len(plans); i++ {
		if plans[i].Cost < plans[i-1].Cost {
			t.Errorf("plans not cost-sorted")
		}
	}
	// All plans must count the same result.
	want := countWith(t, amazonG, plans[0].Plan)
	for _, wp := range plans[1:] {
		if got := countWith(t, amazonG, wp.Plan); got != want {
			t.Errorf("order %v: count = %d, want %d", wp.Order, got, want)
		}
	}
}

func TestEnumerateWCOPlansDedupSymmetry(t *testing.T) {
	// Q5 (symmetric diamond-X) has 8 raw orderings of interest; symmetric
	// pairs like a2a3a1a4 / a2a3a4a1 must be merged (Section 3.2.3).
	plans, err := EnumerateWCOPlans(query.Q5(), amazonOpts())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, wp := range plans {
		sig := planSignature(wp.Plan.Root, nil)
		if seen[sig] {
			t.Errorf("duplicate plan signature in deduped enumeration")
		}
		seen[sig] = true
	}
	if len(plans) == 0 || len(plans) > 12 {
		t.Errorf("Q5 deduped WCO plan count = %d, expected a handful", len(plans))
	}
}

func TestCacheConsciousBeatsObliviousOnQ5(t *testing.T) {
	// The cache-conscious optimizer must pick an ordering that reuses the
	// intersection cache on the symmetric diamond-X (Section 5.2 discussion
	// of Table 6); the executor profile then shows cache hits with the
	// factorized tier off (a factorized tail computes each leaf's set once
	// per prefix, which leaves the cache nothing to serve).
	p, err := Optimize(query.Q5(), amazonOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsWCO() {
		t.Skipf("picked non-WCO plan:\n%s", p.Describe())
	}
	_, prof, err := countPlan(amazonG, p, exec.RunConfig{NoFactorize: true})
	if err != nil {
		t.Fatal(err)
	}
	if prof.CacheHits == 0 {
		t.Errorf("cache-conscious plan shows no cache hits:\n%s", p.Describe())
	}
}

func TestQ9HybridPlanShape(t *testing.T) {
	// Figure 10: on suitable data the optimizer mixes joins and
	// intersections for Q9. We assert the plan is valid and correct, and
	// that the plan space search at least considered hybrid shapes by
	// verifying the estimated cost is no worse than the best WCO plan.
	p, err := Optimize(query.Q9(), amazonOpts())
	if err != nil {
		t.Fatal(err)
	}
	wco, err := EnumerateWCOPlans(query.Q9(), amazonOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(wco) == 0 {
		t.Fatal("no WCO plans")
	}
	if p.EstimatedCost > wco[0].Cost+1e-9 {
		t.Errorf("DP plan cost %v worse than best WCO %v", p.EstimatedCost, wco[0].Cost)
	}
}

func TestEnumeratePlansSpectrumClasses(t *testing.T) {
	plans, err := EnumeratePlans(query.Q4(), amazonOpts(), 16)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, sp := range plans {
		kinds[sp.Kind]++
	}
	if kinds["wco"] == 0 {
		t.Errorf("spectrum missing WCO plans: %v", kinds)
	}
	if kinds["hybrid"] == 0 {
		t.Errorf("diamond-X spectrum should contain hybrid plans: %v", kinds)
	}
	// All spectrum plans must be correct.
	small := datagen.CoPurchase(datagen.CoPurchaseConfig{N: 250, K: 4, Rewire: 0.2, Seed: 9})
	want := query.RefCount(small, query.Q4())
	for i, sp := range plans {
		if i >= 8 {
			break // correctness spot-check on the cheapest few
		}
		got := countWith(t, small, sp.Plan)
		if got != want {
			t.Errorf("spectrum plan %d (%s) count = %d, want %d\n%s", i, sp.Kind, got, want, sp.Plan.Describe())
		}
	}
}

func TestSpectrumContainsNonGHDPlanForSixCycle(t *testing.T) {
	// The 6-cycle's signature hybrid plan (Figure 1d): join two paths, then
	// close the cycle with an intersection — an E/I above a hash join.
	plans, err := EnumeratePlans(query.Q12(), amazonOpts(), 24)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sp := range plans {
		if ext, ok := sp.Plan.Root.(*plan.Extend); ok && len(ext.Descriptors) >= 2 {
			hasJoinBelow := false
			plan.Walk(ext.Child, func(n plan.Node) {
				if _, isJ := n.(*plan.HashJoin); isJ {
					hasJoinBelow = true
				}
			})
			if hasJoinBelow {
				found = true
				break
			}
		}
	}
	if !found {
		t.Error("6-cycle spectrum lacks the intersect-after-join hybrid shape (Figure 1d)")
	}
}

func TestBeamSearchLargeQuery(t *testing.T) {
	// A 12-vertex path exceeds the full-enumeration limit and must go
	// through beam search, still yielding a valid, correct plan.
	pattern := "a1->a2"
	for i := 2; i < 12; i++ {
		pattern += ", " + vname(i) + "->" + vname(i+1)
	}
	q := query.MustParse(pattern)
	if q.NumVertices() != 12 {
		t.Fatalf("test query has %d vertices", q.NumVertices())
	}
	p, err := Optimize(q, amazonOpts())
	if err != nil {
		t.Fatal(err)
	}
	small := datagen.CoPurchase(datagen.CoPurchaseConfig{N: 120, K: 2, Rewire: 0.3, Seed: 4})
	smallCat := catalogue.Build(small, catalogue.Config{H: 2, Z: 100, MaxInstances: 50, Seed: 3})
	p2, err := Optimize(q, Options{Catalogue: smallCat})
	if err != nil {
		t.Fatal(err)
	}
	got := countWith(t, small, p2)
	want := query.RefCount(small, q)
	if got != want {
		t.Errorf("beam plan count = %d, want %d", got, want)
	}
	_ = p
}

func vname(i int) string { return fmt.Sprintf("a%d", i) }

func TestEstimateCostMatchesOptimizerOnWCO(t *testing.T) {
	plans, err := EnumerateWCOPlans(query.Q3(), amazonOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, wp := range plans {
		ext := EstimateCost(query.Q3(), wp.Plan, amazonOpts())
		if diff := ext - wp.Cost; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("EstimateCost = %v, enumeration cost = %v", ext, wp.Cost)
		}
	}
}

func TestParallelEdgeRejection(t *testing.T) {
	q := &query.Graph{
		Vertices: []query.Vertex{{Name: "a"}, {Name: "b"}, {Name: "c"}},
		Edges: []query.Edge{
			{From: 0, To: 1}, {From: 1, To: 0}, {From: 1, To: 2},
		},
	}
	if _, err := Optimize(q, amazonOpts()); err == nil {
		t.Error("parallel opposite edges should be rejected")
	}
}

func TestMissingCatalogue(t *testing.T) {
	if _, err := Optimize(query.Q1(), Options{}); err == nil {
		t.Error("missing catalogue should error")
	}
}

func TestICostRanksQVOsLikeRuntimeProxy(t *testing.T) {
	// The paper's central claim for Tables 4-6: actual i-cost ranks plans
	// in the same order as runtimes. Runtime is noisy in unit tests, so we
	// use actual i-cost vs estimated cost rank agreement on the web graph,
	// where direction effects are extreme.
	opts := Options{Catalogue: webCat}
	plans, err := EnumerateWCOPlans(query.Q1(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 3 {
		t.Fatalf("want 3 triangle QVOs, got %d", len(plans))
	}
	type res struct{ est, actual float64 }
	var rs []res
	for _, wp := range plans {
		_, prof, err := countPlan(webG, wp.Plan, exec.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, res{wp.Cost, float64(prof.ICost)})
	}
	// The estimated-cheapest plan must be among the actually-cheapest two.
	bestActual := 0
	for i, r := range rs {
		if r.actual < rs[bestActual].actual {
			bestActual = i
		}
	}
	if rs[0].actual > 3*rs[bestActual].actual {
		t.Errorf("estimated-best plan has actual i-cost %v, best is %v", rs[0].actual, rs[bestActual].actual)
	}
}

// TestCarriedSetPricing checks that the cost model prices an inheriting
// extension the way the executor runs it. On the 4-clique's WCO chain the
// last stage reads the carried set plus one list instead of three lists:
// the estimate must drop below the cache-oblivious one (which on this
// chain — every descriptor reads the last-added vertex — differs only by
// the carried pricing), and it must track the measured i-cost at least as
// closely as the oblivious estimate tracks the i-cost of the same plan
// run without carried sets.
func TestCarriedSetPricing(t *testing.T) {
	q := query.MustParse("a->b, a->c, b->c, a->d, b->d, c->d")
	// A clustered graph, so the carried triangle-closing sets are a large
	// share of the work (the benchmark's hot-count graph).
	ljG := datagen.LiveJournal(1)
	ljCat := catalogue.Build(ljG, catalogue.Config{H: 3, Z: 500, MaxInstances: 300, Seed: 7})
	wco, err := EnumerateWCOPlans(q, Options{Catalogue: ljCat})
	if err != nil {
		t.Fatal(err)
	}
	var p *plan.Plan
	for _, cand := range wco {
		if top, ok := cand.Plan.Root.(*plan.Extend); ok && top.Inherited() != 0 {
			p = cand.Plan
			break
		}
	}
	if p == nil {
		t.Fatal("no WCO ordering of the 4-clique inherits")
	}
	carried := EstimateCost(q, p, Options{Catalogue: ljCat})
	oblivious := EstimateCost(q, p, Options{Catalogue: ljCat, CacheOblivious: true})
	if carried >= oblivious {
		t.Fatalf("carried estimate %.0f not below the cache-oblivious %.0f\n%s", carried, oblivious, p.Describe())
	}
	_, got, err := countPlan(ljG, p, exec.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Every stage of a clique chain reads all the vertices bound before it,
	// so no two rows share a key and the intersection cache never hits:
	// with it off, carried sets go and nothing else changes.
	_, uncarried, err := countPlan(ljG, p, exec.RunConfig{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.CacheHits != 0 {
		t.Fatalf("%d cache hits on a clique chain", got.CacheHits)
	}
	if got.CarriedSets == 0 || got.ICost >= uncarried.ICost {
		t.Fatalf("executor did not carry: i-cost %d (%d uncarried), carried sets %d", got.ICost, uncarried.ICost, got.CarriedSets)
	}
	qerr := func(est float64, actual int64) float64 {
		r := est / float64(actual)
		if r < 1 {
			r = 1 / r
		}
		return r
	}
	t.Logf("estimate %.0f vs measured %d (q-error %.2f); oblivious %.0f vs uncarried %d (q-error %.2f)",
		carried, got.ICost, qerr(carried, got.ICost), oblivious, uncarried.ICost, qerr(oblivious, uncarried.ICost))
	if c, o := qerr(carried, got.ICost), qerr(oblivious, uncarried.ICost); c > 1.25*o || c > 2 {
		t.Errorf("carried estimate q-error %.2f, cache-oblivious baseline %.2f: pricing drifted from what the executor does", c, o)
	}
}

// TestStarLeafPricedOnPrefix is the leaf-order test of a star-shaped
// suffix: a leaf is priced on the factorized prefix it runs on, never on
// a sibling leaf, so adding it after a sibling changes its cost only by
// the executor's early-out — the prefix matches the sibling finds no
// extension for (µ below one) never reach it. On diamondx the twin
// SCAN(b→c), d, a and SCAN(b→c), a, d plans once priced 2.604e7 and
// 2.519e7 because the second leaf's lists were estimated on {a,b,c,d}
// minus nothing; tri2leaf's two leaves (µ above one) must price equal in
// either order.
func TestStarLeafPricedOnPrefix(t *testing.T) {
	opts := Options{Catalogue: catalogue.Build(datagen.LiveJournal(1), catalogue.Config{H: 3, Z: 1000, Seed: 1})}
	for _, tc := range []struct {
		name, pattern string
		prefix        []int // a chain of connected prefixes
		leaves        [2]int
	}{
		{"diamondx", "a->b, a->c, b->c, b->d, c->d", []int{1, 2}, [2]int{0, 3}},
		{"tri2leaf", "a->b, b->c, a->c, a->d, a->e", []int{0, 1, 2}, [2]int{3, 4}},
	} {
		q := query.MustParse(tc.pattern)
		prefix := buildWCO(t, q, tc.prefix)
		ctx, err := newContext(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		mask := plan.CoverMask(prefix)
		extend := func(child plan.Node, v int) *plan.Extend {
			ext, err := plan.NewExtend(q, child, v)
			if err != nil {
				t.Fatal(err)
			}
			return ext
		}
		var twins [2]float64
		for i, l := range tc.leaves {
			sib := tc.leaves[1-i]
			alone := ctx.extendCost(mask, extend(prefix, l))
			after := ctx.extendCost(mask|query.Bit(sib), extend(extend(prefix, sib), l))
			survive := math.Min(1, ctx.cardinality(mask|query.Bit(sib))/ctx.cardinality(mask))
			if want := alone * survive; math.Abs(after-want) > 1e-9*want {
				t.Errorf("%s: leaf %s costs %.6g after %s, want %.6g (%.6g alone × %.3f surviving)",
					tc.name, q.Vertices[l].Name, after, q.Vertices[sib].Name, want, alone, survive)
			}
			twin := &plan.Plan{Query: q, Root: extend(extend(prefix, sib), l)}
			twins[i] = EstimateCost(q, twin, opts)
		}
		t.Logf("%s: twins priced %.4g and %.4g", tc.name, twins[0], twins[1])
		if tc.name == "tri2leaf" && math.Abs(twins[0]-twins[1]) > 1e-9*twins[0] {
			t.Errorf("tri2leaf: the leaves' two orders price %.6g and %.6g", twins[0], twins[1])
		}
	}
}

// buildWCO returns the chain over order: a SCAN of its first two
// vertices' edge, then one E/I per vertex.
func buildWCO(t *testing.T, q *query.Graph, order []int) plan.Node {
	t.Helper()
	var node plan.Node
	for _, e := range q.Edges {
		if (e.From == order[0] && e.To == order[1]) || (e.From == order[1] && e.To == order[0]) {
			node = plan.NewScan(q, e)
			break
		}
	}
	for _, v := range order[2:] {
		ext, err := plan.NewExtend(q, node, v)
		if err != nil {
			t.Fatal(err)
		}
		node = ext
	}
	return node
}
