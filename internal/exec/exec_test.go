package exec

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"graphflow/internal/datagen"
	"graphflow/internal/graph"
	"graphflow/internal/plan"
	"graphflow/internal/query"
)

// buildWCO constructs a WCO plan for q in the given vertex order.
func buildWCO(t testing.TB, q *query.Graph, order []int) *plan.Plan {
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
		t.Fatalf("order %v does not start with an edge", order)
	}
	var node plan.Node = plan.NewScan(q, *first)
	for _, v := range order[2:] {
		ext, err := plan.NewExtend(q, node, v)
		if err != nil {
			t.Fatalf("NewExtend: %v", err)
		}
		node = ext
	}
	return &plan.Plan{Query: q, Root: node}
}

// countPlan compiles p against g and counts its matches under cfg.
func countPlan(g graph.View, p *plan.Plan, cfg RunConfig) (int64, Profile, error) {
	cp, err := Compile(g, p)
	if err != nil {
		return 0, Profile{}, err
	}
	return cp.CountCtx(context.Background(), cfg)
}

// refCount is the count every engine configuration is held to:
// query.RefCount of p's query, backtracking over graph.View lookups. It
// shares no code with the engine — no kernel, extension set, cache or
// hash table — so a bug there cannot hide in both.
func refCount(g graph.View, p *plan.Plan) int64 { return query.RefCount(g, p.Query) }

// refTuples is query.RefEnumerate's match set of p's query on g, each
// match laid out in the slot order p's root emits (Out()), formatted and
// sorted as sortedTuples formats and sorts the engine's.
func refTuples(g graph.View, p *plan.Plan) []string {
	layout := p.Root.Out()
	row := make([]graph.VertexID, len(layout))
	var out []string
	query.RefEnumerate(g, p.Query, func(a []graph.VertexID) {
		for slot, v := range layout {
			row[slot] = a[v]
		}
		out = append(out, fmt.Sprint(row))
	})
	sort.Strings(out)
	return out
}

func smallRandomGraph(seed int64, n, deg int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for d := 0; d < deg; d++ {
			b.AddEdge(graph.VertexID(v), graph.VertexID(rng.Intn(n)), 0)
		}
	}
	return b.MustBuild()
}

func TestScanOnlyPlan(t *testing.T) {
	g := smallRandomGraph(1, 50, 3)
	q := query.MustParse("a->b")
	p := &plan.Plan{Query: q, Root: plan.NewScan(q, q.Edges[0])}
	n, prof, err := countPlan(g, p, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(g.NumEdges()) {
		t.Errorf("edge scan = %d, want %d", n, g.NumEdges())
	}
	if prof.Matches != n || prof.Intermediate != 0 {
		t.Errorf("profile: %+v", prof)
	}
}

func TestWCOTriangleMatchesReference(t *testing.T) {
	g := smallRandomGraph(2, 120, 6)
	q := query.Q1()
	want := query.RefCount(g, q)
	for _, order := range [][]int{{0, 1, 2}, {1, 2, 0}, {0, 2, 1}} {
		p := buildWCO(t, q, order)
		got, prof, err := countPlan(g, p, RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("order %v: count = %d, want %d", order, got, want)
		}
		if prof.ICost <= 0 {
			t.Errorf("order %v: no i-cost recorded", order)
		}
	}
}

func TestAllQVOsAgreeOnDiamondX(t *testing.T) {
	g := smallRandomGraph(3, 80, 5)
	q := query.Q4()
	want := query.RefCount(g, q)
	// All connected-prefix orderings.
	for _, order := range allOrders(q) {
		p := buildWCO(t, q, order)
		got, _, err := countPlan(g, p, RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("order %v: count = %d, want %d", order, got, want)
		}
	}
}

// allOrders enumerates connected-prefix vertex orders starting at an edge.
func allOrders(q *query.Graph) [][]int {
	n := q.NumVertices()
	var out [][]int
	var rec func(order []int, mask query.Mask)
	rec = func(order []int, mask query.Mask) {
		if len(order) == n {
			out = append(out, append([]int(nil), order...))
			return
		}
		for v := 0; v < n; v++ {
			if mask&query.Bit(v) != 0 {
				continue
			}
			if len(q.EdgesBetween(mask, v)) == 0 {
				continue
			}
			rec(append(order, v), mask|query.Bit(v))
		}
	}
	for _, e := range q.Edges {
		rec([]int{e.From, e.To}, query.Bit(e.From)|query.Bit(e.To))
	}
	return out
}

func TestHashJoinPlanMatchesReference(t *testing.T) {
	g := smallRandomGraph(4, 100, 5)
	q := query.Q8() // two triangles sharing a3
	want := query.RefCount(g, q)
	left := buildWCO(t, q, []int{0, 1, 2}).Root
	right := buildWCO(t, q, []int{2, 3, 4}).Root
	hj, err := plan.NewHashJoin(left, right)
	if err != nil {
		t.Fatal(err)
	}
	p := &plan.Plan{Query: q, Root: hj}
	got, prof, err := countPlan(g, p, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("hash join count = %d, want %d", got, want)
	}
	if prof.HashedTuples == 0 || prof.ProbedTuples == 0 {
		t.Errorf("join counters empty: %+v", prof)
	}
}

// TestBatchCountersLastStage pins BatchCounters' rule: the last stage of
// a count writes no batch, so a count whose root is a hash join reads
// Batches.Probe 0, while the same plan with an emit writes probe batches.
func TestBatchCountersLastStage(t *testing.T) {
	g := smallRandomGraph(4, 100, 5)
	p := twoTriangles(t)
	n, counted, err := countPlan(g, p, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || counted.ProbedTuples == 0 || counted.Batches.Probe != 0 {
		t.Errorf("count: %d matches, %d probed tuples, %d probe batches; want matches, probes and 0 batches",
			n, counted.ProbedTuples, counted.Batches.Probe)
	}
	matched, err := Must(t, g, p).RunCtx(context.Background(), RunConfig{}, func([]graph.VertexID) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if matched.Matches != n || matched.Batches.Probe == 0 {
		t.Errorf("match: %d rows in %d probe batches; want %d rows in at least one", matched.Matches, matched.Batches.Probe, n)
	}
}

func TestExtendAfterHashJoin(t *testing.T) {
	// Q9's signature plan shape (Figure 10): join two triangles, then close
	// a6 with a 2-way intersection after the join.
	g := smallRandomGraph(5, 90, 5)
	q := query.Q9()
	want := query.RefCount(g, q)
	tri1 := buildWCO(t, q, []int{0, 1, 2}).Root // a1,a2,a3
	tri2 := buildWCO(t, q, []int{2, 3, 4}).Root // a3,a4,a5
	hj, err := plan.NewHashJoin(tri1, tri2)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := plan.NewExtend(q, hj, 5) // close a6 from a2 and a4
	if err != nil {
		t.Fatal(err)
	}
	if len(ext.Descriptors) != 2 {
		t.Fatalf("a6 close should intersect 2 lists, got %d", len(ext.Descriptors))
	}
	p := &plan.Plan{Query: q, Root: ext}
	got, _, err := countPlan(g, p, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("Q9 hybrid count = %d, want %d", got, want)
	}
}

func TestNestedHashJoins(t *testing.T) {
	// Q10: diamond (a1..a4) joined with triangle (a4,a5,a6), diamond built
	// from a join itself to exercise build-side recursion.
	g := smallRandomGraph(6, 70, 5)
	q := query.Q10()
	want := query.RefCount(g, q)

	pathL := buildWCO(t, q, []int{1, 0, 2}).Root // a2<-a1->a3
	diamond, err := plan.NewExtend(q, pathL, 3)  // close a4
	if err != nil {
		t.Fatal(err)
	}
	tri := buildWCO(t, q, []int{3, 4, 5}).Root // a4,a5,a6 triangle
	hj, err := plan.NewHashJoin(diamond, tri)
	if err != nil {
		t.Fatal(err)
	}
	p := &plan.Plan{Query: q, Root: hj}
	got, _, err := countPlan(g, p, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("Q10 count = %d, want %d", got, want)
	}
}

func TestIntersectionCacheCorrectnessAndHits(t *testing.T) {
	g := datagen.Amazon(1)
	q := query.Q5() // symmetric diamond-X: cache-friendly order exists
	// Order a2,a3,a1,a4: extensions of a1 and a4 use identical descriptors
	// reading slots 0,1 — the second one always hits the cache.
	pCached := buildWCO(t, q, []int{1, 2, 0, 3})
	// a1 and a4 are both leaves: factorized, each set is computed once per
	// (a2, a3) and nothing is left for the cache to serve.
	nOn, profOn, err := countPlan(g, pCached, RunConfig{NoFactorize: true})
	if err != nil {
		t.Fatal(err)
	}
	nOff, profOff, err := countPlan(g, pCached, RunConfig{NoFactorize: true, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if nOn != nOff {
		t.Fatalf("cache changed result: %d vs %d", nOn, nOff)
	}
	if profOn.CacheHits == 0 {
		t.Error("expected cache hits on a2a3a1a4 ordering of Q5")
	}
	if profOn.ICost >= profOff.ICost {
		t.Errorf("cache should reduce i-cost: on=%d off=%d", profOn.ICost, profOff.ICost)
	}
	if want := query.RefCount(g, q); nOn != want {
		t.Errorf("count = %d, want %d", nOn, want)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	g := datagen.Epinions(1)
	q := query.Q1()
	p := buildWCO(t, q, []int{0, 1, 2})
	nSeq, profSeq, err := countPlan(g, p, RunConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	nPar, profPar, err := countPlan(g, p, RunConfig{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if nSeq != nPar {
		t.Errorf("parallel count = %d, sequential = %d", nPar, nSeq)
	}
	if profPar.Matches != profSeq.Matches {
		t.Errorf("profiles disagree on matches: %d vs %d", profPar.Matches, profSeq.Matches)
	}
}

func TestParallelHybridMatchesSequential(t *testing.T) {
	g := smallRandomGraph(8, 200, 6)
	q := query.Q8()
	left := buildWCO(t, q, []int{0, 1, 2}).Root
	right := buildWCO(t, q, []int{2, 3, 4}).Root
	hj, err := plan.NewHashJoin(left, right)
	if err != nil {
		t.Fatal(err)
	}
	p := &plan.Plan{Query: q, Root: hj}
	nSeq, _, err := countPlan(g, p, RunConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	nPar, _, err := countPlan(g, p, RunConfig{Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	if nSeq != nPar {
		t.Errorf("parallel hybrid = %d, sequential = %d", nPar, nSeq)
	}
}

func TestRunEmitTuples(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 0)
	b.AddEdge(1, 2, 0)
	b.AddEdge(0, 2, 0)
	g := b.MustBuild()
	q := query.Q1()
	p := buildWCO(t, q, []int{0, 1, 2})
	var tuples [][]graph.VertexID
	cp, err := Compile(g, p)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cp.RunCtx(context.Background(), RunConfig{}, func(tu []graph.VertexID) bool {
		tuples = append(tuples, append([]graph.VertexID(nil), tu...))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 {
		t.Fatalf("tuples = %v, want 1 triangle", tuples)
	}
	// Layout is [a1, a2, a3] for this order.
	if tuples[0][0] != 0 || tuples[0][1] != 1 || tuples[0][2] != 2 {
		t.Errorf("tuple = %v, want [0 1 2]", tuples[0])
	}
}

func TestLabeledExecution(t *testing.T) {
	base := smallRandomGraph(9, 100, 5)
	g := datagen.Relabel(base, 1, 3, 17)
	q := query.WithRandomEdgeLabels(query.Q1(), 3, 99)
	want := query.RefCount(g, q)
	p := buildWCO(t, q, []int{0, 1, 2})
	got, _, err := countPlan(g, p, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("labeled count = %d, want %d", got, want)
	}
}

func TestProfileIntermediateCounts(t *testing.T) {
	// Triangle on K3: scan emits 3 edges (intermediate), extend emits 1
	// match.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 0)
	b.AddEdge(1, 2, 0)
	b.AddEdge(0, 2, 0)
	g := b.MustBuild()
	p := buildWCO(t, query.Q1(), []int{0, 1, 2})
	_, prof, err := countPlan(g, p, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Intermediate != 3 {
		t.Errorf("intermediate = %d, want 3 (scanned edges)", prof.Intermediate)
	}
	if prof.Matches != 1 {
		t.Errorf("matches = %d, want 1", prof.Matches)
	}
}

// TestRunConfigHookZeroAllocs: a run under a context without a hook pays
// one context lookup for it and allocates nothing, with a RunConfig that
// stays on the stack; only the context that carries a hook sees it.
func TestRunConfigHookZeroAllocs(t *testing.T) {
	plain, cancel := context.WithCancel(context.Background())
	defer cancel()
	hooked := WithRunConfig(plain, func(c *RunConfig) { c.DisableCache = true })
	apply := func(ctx context.Context) bool {
		cfg := RunConfig{Workers: 1}
		ApplyRunConfig(ctx, &cfg)
		return cfg.DisableCache
	}
	if n := testing.AllocsPerRun(100, func() { apply(plain) }); n != 0 {
		t.Errorf("%v allocs per ApplyRunConfig without a hook", n)
	}
	if apply(plain) || !apply(hooked) {
		t.Errorf("DisableCache without a hook %v, with one %v; want false, true", apply(plain), apply(hooked))
	}
}
