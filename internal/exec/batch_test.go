package exec

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"graphflow/internal/datagen"
	"graphflow/internal/graph"
	"graphflow/internal/plan"
	"graphflow/internal/query"
)

// batchSizesUnderTest is the matrix every differential comparison runs
// at: single-row batches (maximum flush pressure, no prefix run ever),
// two-row batches (the shortest that hold one), an odd size that never
// divides fan-outs evenly, a mid size, and the default.
var batchSizesUnderTest = []int{1, 2, 3, 64, 1024}

// sortedTuples collects every match of cp as a sorted list of formatted
// tuples, for order-insensitive result-set comparison.
func sortedTuples(t *testing.T, cp *CompiledPlan, cfg RunConfig) []string {
	t.Helper()
	var out []string
	var mu sync.Mutex
	_, err := cp.RunCtx(context.Background(), cfg, func(tu []graph.VertexID) bool {
		mu.Lock()
		out = append(out, fmt.Sprint(tu))
		mu.Unlock()
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// plansUnderTest builds a representative plan set over g: scan-only, a
// 1-stage and 2-stage WCO pipeline, a hybrid with a hash probe, and two
// cliques whose upper stages inherit their upstream's extension set.
func plansUnderTest(t *testing.T, g *graph.Graph) map[string]*plan.Plan {
	t.Helper()
	plans := map[string]*plan.Plan{}
	qEdge := query.MustParse("a->b")
	plans["scan"] = &plan.Plan{Query: qEdge, Root: plan.NewScan(qEdge, qEdge.Edges[0])}
	plans["triangle"] = buildWCO(t, query.Q1(), []int{0, 1, 2})
	plans["diamondX"] = buildWCO(t, query.Q4(), []int{0, 1, 2, 3})
	q8 := query.Q8()
	left := buildWCO(t, q8, []int{0, 1, 2}).Root
	right := buildWCO(t, q8, []int{2, 3, 4}).Root
	hj, err := plan.NewHashJoin(left, right)
	if err != nil {
		t.Fatal(err)
	}
	plans["hybrid"] = &plan.Plan{Query: q8, Root: hj}
	plans["clique4"] = buildWCO(t, cliqueQuery(4), chainOrder(4))
	plans["clique5"] = buildWCO(t, cliqueQuery(5), chainOrder(5))
	return plans
}

// TestBatchEngineMatchesOracle compares the engine against the reference
// matcher (query.RefCount, query.RefEnumerate) on counts and sorted tuple
// sets, across batch sizes, worker counts and plan shapes.
func TestBatchEngineMatchesOracle(t *testing.T) {
	g := smallRandomGraph(11, 160, 6)
	for name, p := range plansUnderTest(t, g) {
		cp, err := Compile(g, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantN := refCount(g, p)
		wantTuples := refTuples(g, p)
		for _, bs := range batchSizesUnderTest {
			for _, workers := range []int{1, 4} {
				cfg := RunConfig{BatchSize: bs, Workers: workers}
				gotN, gotProf, err := cp.CountCtx(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if gotN != wantN {
					t.Errorf("%s bs=%d workers=%d: count %d, oracle %d", name, bs, workers, gotN, wantN)
				}
				if gotProf.Matches != wantN {
					t.Errorf("%s bs=%d workers=%d: profile matches %d, oracle %d", name, bs, workers, gotProf.Matches, wantN)
				}
				if workers == 1 {
					got := sortedTuples(t, cp, cfg)
					if len(got) != len(wantTuples) {
						t.Fatalf("%s bs=%d: %d tuples, oracle %d", name, bs, len(got), len(wantTuples))
					}
					for i := range got {
						if got[i] != wantTuples[i] {
							t.Fatalf("%s bs=%d: tuple[%d] = %s, oracle %s", name, bs, i, got[i], wantTuples[i])
						}
					}
				}
			}
		}
	}
}

// TestBatchProfileParity checks that the batch size changes no counter:
// at every size the sequential engine reproduces the counters of the
// same plan at one row a batch, where no prefix run can form — matches,
// intermediate tuples, cache hits, probe inputs and build rows (run
// grouping must behave exactly like the intersection cache it
// generalises), i-cost and carried sets (a run split across batches
// carries the same set). Matches are held to the reference matcher, and
// carried sets appear exactly on plans with an inheriting stage
// (TestCarriedCliqueICost holds their i-cost to an independent model).
func TestBatchProfileParity(t *testing.T) {
	g := denseRandomGraph(12, 60, 0.12)
	for name, p := range plansUnderTest(t, g) {
		cp, err := Compile(g, p)
		if err != nil {
			t.Fatal(err)
		}
		_, want, err := cp.CountCtx(context.Background(), RunConfig{BatchSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		if ref := refCount(g, p); want.Matches != ref {
			t.Fatalf("%s: %d matches, reference %d", name, want.Matches, ref)
		}
		if carries := hasInheritingStage(cp); carries != (want.CarriedSets > 0) {
			t.Errorf("%s: %d carried sets; inheriting stage: %v", name, want.CarriedSets, carries)
		}
		for _, bs := range batchSizesUnderTest {
			_, got, err := cp.CountCtx(context.Background(), RunConfig{BatchSize: bs})
			if err != nil {
				t.Fatal(err)
			}
			if got.Matches != want.Matches || got.Intermediate != want.Intermediate ||
				got.CacheHits != want.CacheHits || got.ProbedTuples != want.ProbedTuples ||
				got.HashedTuples != want.HashedTuples || got.ICost != want.ICost ||
				got.CarriedSets != want.CarriedSets {
				t.Errorf("%s bs=%d: profile %+v, at one row a batch %+v", name, bs, got, want)
			}
		}
	}
}

// TestBatchFastCount checks the batch-granular count, factorized and
// not, against full enumeration at every batch size.
func TestBatchFastCount(t *testing.T) {
	g := datagen.Epinions(1)
	p := buildWCO(t, query.Q4(), []int{0, 1, 2, 3})
	cp, err := Compile(g, p)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(sortedTuples(t, cp, RunConfig{NoFactorize: true})))
	for _, bs := range batchSizesUnderTest {
		for _, cfg := range []RunConfig{{BatchSize: bs, NoFactorize: true}, {BatchSize: bs}} {
			got, prof, err := cp.CountCtx(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || prof.Matches != want {
				t.Errorf("%+v: count %d (profile %d), enumerated %d", cfg, got, prof.Matches, want)
			}
		}
	}
}

// TestBatchLimitExactUnderParallelism is the Limit cap regression: at
// every batch size, with several workers, CountUpToCtx must report exactly
// the cap. (That Match never calls its callback again after it returned
// false is the root package's TestMatchSerialisesCallback.)
func TestBatchLimitExactUnderParallelism(t *testing.T) {
	g := datagen.Amazon(1)
	p := buildWCO(t, query.Q1(), []int{0, 1, 2})
	cp, err := Compile(g, p)
	if err != nil {
		t.Fatal(err)
	}
	full := refCount(g, p)
	if full < 100 {
		t.Skipf("too few triangles (%d)", full)
	}
	for _, bs := range append([]int{0}, batchSizesUnderTest...) {
		for _, limit := range []int64{1, 7, 100} {
			n, _, err := cp.CountUpToCtx(context.Background(), RunConfig{BatchSize: bs, Workers: 4}, limit)
			if err != nil {
				t.Fatal(err)
			}
			if n != limit {
				t.Errorf("bs=%d limit=%d: CountUpToCtx = %d", bs, limit, n)
			}
		}
		// A cap above the total must return the exact count.
		n, _, err := cp.CountUpToCtx(context.Background(), RunConfig{BatchSize: bs, Workers: 4}, full+1000)
		if err != nil {
			t.Fatal(err)
		}
		if n != full {
			t.Errorf("bs=%d: uncapped CountUpToCtx = %d, want %d", bs, n, full)
		}
	}
}

// hubStarGraph builds a graph with one hub whose forward adjacency is
// far above hubSplitDegree plus a background of triangles, so parallel
// scans must exercise the hub-splitting morsel path.
func hubStarGraph(t *testing.T) *graph.Graph {
	t.Helper()
	n := hubSplitDegree*2 + 64
	b := graph.NewBuilder(n)
	for i := 1; i < hubSplitDegree*2; i++ {
		b.AddEdge(0, graph.VertexID(i), 0)
	}
	// Triangles through hub neighbours so the pipeline has E/I work.
	for i := 1; i+1 < n; i += 2 {
		b.AddEdge(graph.VertexID(i), graph.VertexID(i+1), 0)
		b.AddEdge(0, graph.VertexID(i+1), 0)
	}
	return b.MustBuild()
}

// TestHubMorselSplitParity checks that hub-split parallel scans agree
// with the reference count on a graph dominated by one hub vertex.
func TestHubMorselSplitParity(t *testing.T) {
	g := hubStarGraph(t)
	p := buildWCO(t, query.Q1(), []int{0, 1, 2})
	cp, err := Compile(g, p)
	if err != nil {
		t.Fatal(err)
	}
	want := refCount(g, p)
	if want == 0 {
		t.Fatal("hub graph has no triangles; test is vacuous")
	}
	for _, workers := range []int{2, 4, 8} {
		got, _, err := cp.CountCtx(context.Background(), RunConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("workers=%d: hub-split count = %d, want %d", workers, got, want)
		}
	}
	// Limits must stay exact across hub splits too.
	n, _, err := cp.CountUpToCtx(context.Background(), RunConfig{Workers: 4}, 17)
	if err != nil {
		t.Fatal(err)
	}
	if n != 17 {
		t.Errorf("hub-split CountUpToCtx = %d, want 17", n)
	}
}

// steadyWorker compiles p over g and returns a batch worker for a
// sequential emit-free run under cfg, warmed up until its buffers have
// all reached steady-state capacity.
func steadyWorker(tb testing.TB, g *graph.Graph, p *plan.Plan, cfg RunConfig) (*worker, int) {
	tb.Helper()
	return steadyWorkerOf(g, Must(tb, g, p), cfg)
}

// steadyWorkerOf is steadyWorker for a plan already compiled.
func steadyWorkerOf(g *graph.Graph, cp *CompiledPlan, cfg RunConfig) (*worker, int) {
	rc := &runContext{ctx: context.Background(), cp: cp, cfg: cfg, batch: cp.EffectiveBatchSize(cfg, 0)}
	var stopped atomic.Bool
	w := newWorker(rc, cp.pipes[len(cp.pipes)-1], true, nil, &stopped, nil)
	n := g.NumVertices()
	w.runBatchRange(0, n)
	w.flushBatches()
	return w, n
}

// wideKeyJoin is a five-vertex pattern split into two four-vertex halves
// that share b, c and d: the hash join between them has a three-vertex
// key — the width the deleted byte-string fork used to serve.
func wideKeyJoin(tb testing.TB) *plan.Plan {
	tb.Helper()
	q := query.MustParse("a->b, a->c, a->d, b->c, c->d, b->e, c->e, d->e")
	hj, err := plan.NewHashJoin(buildWCO(tb, q, []int{0, 1, 2, 3}).Root, buildWCO(tb, q, []int{1, 2, 3, 4}).Root)
	if err != nil {
		tb.Fatal(err)
	}
	if len(hj.JoinVertices) != 3 {
		tb.Fatalf("join key %v, want three vertices", hj.JoinVertices)
	}
	return &plan.Plan{Query: q, Root: hj}
}

// twoTriangles is Q8 — two triangles sharing a vertex — as a hash join of
// its triangles: a one-vertex key.
func twoTriangles(tb testing.TB) *plan.Plan {
	tb.Helper()
	q := query.Q8()
	hj, err := plan.NewHashJoin(buildWCO(tb, q, []int{0, 1, 2}).Root, buildWCO(tb, q, []int{2, 3, 4}).Root)
	if err != nil {
		tb.Fatal(err)
	}
	return &plan.Plan{Query: q, Root: hj}
}

// steadyProbeWorker builds the hash tables of p (a plan with hash joins)
// and returns a warmed-up worker for its driver pipeline: every probe
// fans its matches out into batches the sink delivers to an emit that
// keeps nothing (without one, the probe would count its build runs).
func steadyProbeWorker(tb testing.TB, g *graph.Graph, p *plan.Plan) (*worker, int) {
	tb.Helper()
	cp := Must(tb, g, p)
	cfg := RunConfig{}
	rc := &runContext{ctx: context.Background(), cp: cp, cfg: cfg, tables: map[*plan.HashJoin]*hashTable{},
		batch: cp.EffectiveBatchSize(cfg, 0), buildBatch: cp.EffectiveBatchSize(cfg, 0)}
	for _, pipe := range cp.pipes[:len(cp.pipes)-1] {
		if err := rc.buildTable(pipe, 1); err != nil {
			tb.Fatal(err)
		}
	}
	var stopped atomic.Bool
	w := newWorker(rc, cp.driver(), true, func([]graph.VertexID) bool { return true }, &stopped, nil)
	n := g.NumVertices()
	w.runBatchRange(0, n)
	w.flushBatches()
	if w.profile.ProbedTuples == 0 || w.profile.Batches.Probe == 0 {
		tb.Fatalf("warm-up probed %d tuples into %d batches; fixture does not exercise the probe", w.profile.ProbedTuples, w.profile.Batches.Probe)
	}
	return w, n
}

// TestZeroAllocs is the dynamic backstop of the //gf:noalloc static
// contract: every steady-state hot loop is table-tested with
// AllocsPerRun after warm-up. Where gfvet's noalloc analyzer stops at
// interface calls and func values, these guards measure straight through
// them. CI runs the whole suite with one `go test -run 'ZeroAllocs'`
// step across packages.
func TestZeroAllocs(t *testing.T) {
	g := datagen.Epinions(1)
	scan := func(w *worker, n int) func() {
		return func() {
			w.runBatchRange(0, n)
			w.flushBatches()
		}
	}
	cases := []struct {
		name string
		// pinned says the row's E/I stages work in prefix runs: the warm-up
		// must have dispatched pinned probes (and with the cache off, none),
		// so the row measures the path it names.
		pinned bool
		// runs, when set, walks the stages' input itself and applies the run
		// rule to it (sweepRule): how many prefix runs a pass over g meets
		// with batches of the given size, and how many of their rows are
		// swept. The warm-up pass must have dispatched exactly that many
		// pinned probes — first rows included, so every run was pinned when
		// it was entered, once, and not on second sight.
		runs  func(batch int) (runs, sweeps int64)
		setup func(t *testing.T) (*worker, func())
	}{
		{
			// The batch E/I pipeline: the scan fills reused columns, the
			// intersections reuse stage scratch, no per-tuple closures. Both
			// stages pin the adjacency list their prefix run shares: the
			// bitmap grows during warm-up only.
			name: "batchEI", pinned: true,
			setup: func(t *testing.T) (*worker, func()) {
				w, n := steadyWorker(t, g, buildWCO(t, query.Q4(), []int{0, 1, 2, 3}), RunConfig{NoFactorize: true})
				return w, scan(w, n)
			},
		},
		{
			// A run fed by the scan, count-only loop: the triangle stage pins
			// N(a) for a's edges.
			name: "scanFedRun", pinned: true,
			runs: func(batch int) (int64, int64) { return scanStageSweeps(g, batch) },
			setup: func(t *testing.T) (*worker, func()) {
				w, n := steadyWorker(t, g, buildWCO(t, query.Q1(), chainOrder(3)), RunConfig{NoFactorize: true})
				return w, scan(w, n)
			},
		},
		{
			// The factorized count tail: leaf sets land in reused stage
			// scratch and products are pure arithmetic. The first leaf is that
			// triangle stage and works in the same runs; the two behind it
			// read one list each.
			name: "factorizedCount", pinned: true,
			runs: func(batch int) (int64, int64) { return scanStageSweeps(g, batch) },
			setup: func(t *testing.T) (*worker, func()) {
				w, n := steadyFactorizedWorker(t, g)
				return w, scan(w, n)
			},
		},
		{
			// A count of a tail whose component is identical to the prefix's
			// part above the scan source (the bowtie): runs of rows are counted
			// and closed, nothing is evaluated above the triangle.
			name: "prefixTwinCount", pinned: true,
			setup: func(t *testing.T) (*worker, func()) {
				w, n := steadyWorker(t, g, componentPlans(t)["bowtie"], RunConfig{})
				return w, scan(w, n)
			},
		},
		{
			// A count of a tail of two identical two-vertex components on a
			// two-vertex separator: one is enumerated per key into reused
			// stage scratch, its second operator sweeping through the list
			// the key pins, and the other shares its count.
			name: "componentCount", pinned: true,
			setup: func(t *testing.T) (*worker, func()) {
				w, n := steadyWorker(t, g, componentPlans(t)["cycles"], RunConfig{})
				return w, scan(w, n)
			},
		},
		{
			// Carried extension sets, plain chain: the 4-clique's last stage
			// intersects into the run table its upstream publishes (run
			// boundaries, aliased columns, the split-run copy) and pins the
			// carried set of each run of two rows or more, below a stage
			// working in the scan's runs.
			name: "carriedEI", pinned: true,
			runs: func(batch int) (int64, int64) {
				runs, sweeps := scanStageSweeps(g, batch)
				r, s := carriedStageSweeps(g, batch)
				return runs + r, sweeps + s
			},
			setup: func(t *testing.T) (*worker, func()) {
				w, n := steadyWorker(t, g, buildWCO(t, cliqueQuery(4), chainOrder(4)), RunConfig{NoFactorize: true})
				return w, scan(w, n)
			},
		},
		{
			// Carried extension sets into a factorized tail, two links deep:
			// the 5-clique's middle stage inherits and publishes, its tail
			// leaf inherits; both pin what they inherit.
			name: "carriedFactorizedTail", pinned: true,
			setup: func(t *testing.T) (*worker, func()) {
				w, n := steadyWorker(t, g, buildWCO(t, cliqueQuery(5), chainOrder(5)), RunConfig{})
				return w, scan(w, n)
			},
		},
		{
			// The hash build into a recycled table: batches are transposed
			// into fragments the table kept, and the seal sorts them into the
			// rows and directory it kept.
			name: "hashBuild", pinned: true,
			setup: func(t *testing.T) (*worker, func()) {
				cp := Must(t, g, twoTriangles(t))
				build := cp.pipes[0]
				ht := newHashTable(build.keySlots, build.outWidth)
				rc := &runContext{ctx: context.Background(), cp: cp, tables: map[*plan.HashJoin]*hashTable{build.feeds: ht},
					buildBatch: cp.EffectiveBatchSize(RunConfig{}, 0)}
				var stopped atomic.Bool
				w := newWorker(rc, build, false, nil, &stopped, nil)
				n := g.NumVertices()
				body := func() {
					ht.reset()
					w.frag = nil
					w.runBatchRange(0, n)
					w.flushBatches()
					if !ht.seal(nil) || ht.len() == 0 {
						t.Fatalf("sealed %d rows", ht.len())
					}
				}
				body()
				return w, body
			},
		},
		{
			// The hash probe, one-vertex key: key gather, directory lookup
			// and the strided fan-out of the build run all work in stage
			// scratch and table storage.
			name: "hashProbe", pinned: true,
			setup: func(t *testing.T) (*worker, func()) {
				w, n := steadyProbeWorker(t, g, twoTriangles(t))
				return w, scan(w, n)
			},
		},
		{
			// The same with a three-vertex key, which used to build a string
			// per lookup.
			name: "hashProbeWideKey", pinned: true,
			setup: func(t *testing.T) (*worker, func()) {
				w, n := steadyProbeWorker(t, g, wideKeyJoin(t))
				return w, scan(w, n)
			},
		},
		{
			// The adaptive router: route keys, measured list sizes and the
			// re-estimates live in router scratch, a run is handed to its
			// ordering as re-sliced columns, and the orderings' stages — a
			// plain E/I stage and a factorized tail each — were built during
			// warm-up.
			name: "adaptiveRouter", pinned: true,
			setup: func(t *testing.T) (*worker, func()) {
				cp, _ := routedPlan(t, g)
				w, n := steadyWorkerOf(g, cp, RunConfig{})
				if w.profile.Reroutes == 0 || len(w.bstages) != 5 {
					t.Fatalf("warm-up rerouted %d runs through %d stages; want both orderings built", w.profile.Reroutes, len(w.bstages))
				}
				return w, scan(w, n)
			},
		},
		{
			// Cache off (Table 3): every row recomputes its intersection,
			// still into the stage's owned buffer, and nothing is pinned.
			name: "cacheOff",
			setup: func(t *testing.T) (*worker, func()) {
				w, n := steadyWorker(t, g, buildWCO(t, query.Q1(), chainOrder(3)), RunConfig{NoFactorize: true, DisableCache: true})
				return w, scan(w, n)
			},
		},
		{
			// A scan-only pipeline: per-scan-vertex Neighbors lookups go
			// through the reusable per-worker reader, and the scan's batches
			// go straight to the sink.
			name: "scanOnly",
			setup: func(t *testing.T) (*worker, func()) {
				q := query.MustParse("a->b")
				w, n := steadyWorker(t, g, &plan.Plan{Query: q, Root: plan.NewScan(q, q.Edges[0])}, RunConfig{})
				return w, scan(w, n)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, body := tc.setup(t)
			got := pinnedProbes(w)
			if (got > 0) != tc.pinned {
				t.Fatalf("warm-up dispatched %d pinned probes; row expects pinned=%v", got, tc.pinned)
			}
			if tc.runs != nil {
				if runs, sweeps := tc.runs(w.batchSize); runs == 0 || got != sweeps {
					t.Fatalf("warm-up dispatched %d pinned probes; the input holds %d runs with %d rows to sweep", got, runs, sweeps)
				}
			}
			if allocs := testing.AllocsPerRun(3, body); allocs != 0 {
				t.Errorf("steady-state %s allocates %.1f times per scan, want 0", tc.name, allocs)
			}
		})
	}
}

// BenchmarkBatchEISteadyState is the CI-guarded steady-state benchmark:
// the full scan→E/I→E/I pipeline of the diamond-X over Epinions, batch
// engine, factorized count. CI asserts 0 allocs/op.
func BenchmarkBatchEISteadyState(b *testing.B) {
	g := datagen.Epinions(1)
	w, n := steadyWorker(b, g, buildWCO(b, query.Q4(), []int{0, 1, 2, 3}), RunConfig{NoFactorize: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.runBatchRange(0, n)
		w.flushBatches()
	}
}

// BenchmarkDeepPipelineBatch runs a 4-stage pipeline (6-vertex chained
// triangles) end to end over a skewed web graph — the shape the
// vectorized engine targets.
func deepPipelinePlan(tb testing.TB) (*graph.Graph, *plan.Plan) {
	// A triangle core followed by fan-out expansions of the core vertex: a
	// 4-stage pipeline whose tail stages extend long sorted prefix runs —
	// the deep-pipeline shape whose per-tuple dispatch overhead the
	// vectorized engine amortizes into column sweeps.
	g := datagen.Web(datagen.WebConfig{N: 2500, OutDeg: 8, Copy: 0.6, Seed: 5})
	q := query.MustParse("a->b, a->c, b->c, a->d, a->e, a->f")
	return g, buildWCO(tb, q, []int{0, 1, 2, 3, 4, 5})
}

func BenchmarkDeepPipelineBatch(b *testing.B) {
	g, p := deepPipelinePlan(b)
	cp, err := Compile(g, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cp.CountCtx(context.Background(), RunConfig{NoFactorize: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// skewedParallelPlan is the skew-torture case of the morsel scheduler: a
// web graph with one dominant hub region and a deep pipeline, run with 4
// workers. Under PR-4's fixed n/(workers*8) chunking the chunk owning
// the hubs becomes the critical path; morsel dequeue plus hub splitting
// spreads the subtree.
func skewedParallelPlan(tb testing.TB) (*graph.Graph, *plan.Plan) {
	g := datagen.Web(datagen.WebConfig{N: 8000, OutDeg: 10, Copy: 0.85, Seed: 9})
	q := query.MustParse("a->b, a->c, b->c, c->d, d->e, e->f")
	return g, buildWCO(tb, q, []int{0, 1, 2, 3, 4, 5})
}

func BenchmarkSkewParallelBatch(b *testing.B) {
	g, p := skewedParallelPlan(b)
	cp, err := Compile(g, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cp.CountCtx(context.Background(), RunConfig{NoFactorize: true, Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
