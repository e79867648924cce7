package exec

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"graphflow/internal/datagen"
	"graphflow/internal/graph"
	"graphflow/internal/plan"
	"graphflow/internal/query"
)

// starPlans builds plans whose star-suffix lengths are known by
// construction, keyed by name with the expected suffix length.
func starPlans(t testing.TB) map[string]struct {
	p      *plan.Plan
	suffix int
} {
	t.Helper()
	out := map[string]struct {
		p      *plan.Plan
		suffix int
	}{}
	// Triangle: the closing vertex anchors on both scan vertices — a
	// 1-leaf star off the scan prefix.
	out["triangle"] = struct {
		p      *plan.Plan
		suffix int
	}{buildWCO(t, query.Q1(), []int{0, 1, 2}), 1}
	// 3-leaf star: both post-scan extends hang off the scan source.
	star := query.MustParse("a->b, a->c, a->d")
	out["tri-star"] = struct {
		p      *plan.Plan
		suffix int
	}{buildWCO(t, star, []int{0, 1, 2, 3}), 2}
	// Path: each extend anchors on the previous target, so only the last
	// extend is a leaf.
	path := query.MustParse("a->b, b->c, c->d")
	out["path"] = struct {
		p      *plan.Plan
		suffix int
	}{buildWCO(t, path, []int{0, 1, 2, 3}), 1}
	// Triangle with a two-leaf star on its closing vertex: the trailing
	// leaves factorize, the triangle-closing extend does not — both
	// leaves anchor on its target, so the suffix stops there.
	tristar := query.MustParse("a->b, b->c, a->c, c->d, c->e")
	out["triangle-star"] = struct {
		p      *plan.Plan
		suffix int
	}{buildWCO(t, tristar, []int{0, 1, 2, 3, 4}), 2}
	// Diamond-X: a4 anchors on a2 and a3, a3 on a1 and a2 — every extend
	// target is read downstream except the last.
	out["diamondX"] = struct {
		p      *plan.Plan
		suffix int
	}{buildWCO(t, query.Q4(), []int{0, 1, 2, 3}), 1}
	return out
}

// TestTailLen pins the detector to the tail lengths the plan shapes
// above guarantee, at both the plan and compiled-pipeline layers.
func TestTailLen(t *testing.T) {
	g := smallRandomGraph(3, 60, 4)
	for name, tc := range starPlans(t) {
		var tail plan.Tail
		plan.TailOf(&tail, tc.p.Query, tc.p.Root, true)
		if tail.Len != tc.suffix || !tail.Leaves() {
			t.Errorf("%s: plan.TailOf = %d operators (all leaves %v), want %d leaves", name, tail.Len, tail.Leaves(), tc.suffix)
		}
		cp, err := Compile(g, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if got := cp.TailLen(); got != tc.suffix {
			t.Errorf("%s: CompiledPlan.TailLen = %d, want %d", name, got, tc.suffix)
		}
	}
	// A scan-only plan has no extends to factorize.
	qEdge := query.MustParse("a->b")
	var tail plan.Tail
	if plan.TailOf(&tail, qEdge, plan.NewScan(qEdge, qEdge.Edges[0]), true); tail.Len != 0 {
		t.Errorf("scan-only tail = %d operators, want 0", tail.Len)
	}
}

// TestFactorizedCountMatchesOracle compares factorized counts against
// the reference count across plan shapes and worker counts, and
// requires the factorized counters to attest that the tier actually ran.
func TestFactorizedCountMatchesOracle(t *testing.T) {
	g := smallRandomGraph(17, 180, 6)
	for name, tc := range starPlans(t) {
		cp, err := Compile(g, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		want := refCount(g, tc.p)
		for _, workers := range []int{1, 4} {
			got, prof, err := cp.CountCtx(context.Background(), RunConfig{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s workers=%d: factorized count %d, oracle %d", name, workers, got, want)
			}
			if prof.FactorizedPrefixes == 0 {
				t.Errorf("%s workers=%d: FactorizedPrefixes = 0; tier did not engage", name, workers)
			}
			if prof.FactorizedAvoided != want {
				t.Errorf("%s workers=%d: FactorizedAvoided = %d, want all %d matches counted by product",
					name, workers, prof.FactorizedAvoided, want)
			}
		}
	}
}

// TestFactorizedMatchUnfoldsIdenticalTuples requires the lazy unfold to
// deliver exactly the tuples of plain batch enumeration, in the same
// order (sequential run): the odometer walks outer leaves slow-to-fast
// with the last leaf innermost, matching nested-loop extension order.
func TestFactorizedMatchUnfoldsIdenticalTuples(t *testing.T) {
	g := smallRandomGraph(23, 140, 5)
	for name, tc := range starPlans(t) {
		cp, err := Compile(g, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		collect := func(cfg RunConfig) []string {
			var out []string
			if _, err := cp.RunCtx(context.Background(), cfg, func(tu []graph.VertexID) bool {
				out = append(out, fmt.Sprint(tu))
				return true
			}); err != nil {
				t.Fatal(err)
			}
			return out
		}
		for _, bs := range []int{0, 1, 3, 64} {
			want := collect(RunConfig{BatchSize: bs, NoFactorize: true})
			got := collect(RunConfig{BatchSize: bs})
			if len(got) != len(want) {
				t.Fatalf("%s bs=%d: %d tuples, plain batch %d", name, bs, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s bs=%d: tuple[%d] = %s, plain batch %s (order must match)", name, bs, i, got[i], want[i])
				}
			}
		}
	}
}

// TestFactorizedLimitExactUnderParallelism checks the shared-budget
// product claiming: with several workers racing, CountUpToCtx under the
// factorized tier must report exactly min(limit, total) — limits landing
// mid-product are truncated to the remainder, never overshot.
func TestFactorizedLimitExactUnderParallelism(t *testing.T) {
	g := datagen.Amazon(1)
	star := query.MustParse("a->b, a->c, a->d")
	cp, err := Compile(g, buildWCO(t, star, []int{0, 1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	// The 3-star's count is the sum of the cubed out-degrees.
	var full int64
	for v := 0; v < g.NumVertices(); v++ {
		d := int64(g.OutDegree(graph.VertexID(v)))
		full += d * d * d
	}
	if full < 1000 {
		t.Skipf("too few star matches (%d)", full)
	}
	for _, workers := range []int{1, 4, 8} {
		for _, limit := range []int64{1, 2, 7, 100, full - 1, full, full + 1000} {
			want := limit
			if want > full {
				want = full
			}
			n, prof, err := cp.CountUpToCtx(context.Background(),
				RunConfig{Workers: workers}, limit)
			if err != nil {
				t.Fatal(err)
			}
			if n != want {
				t.Errorf("workers=%d limit=%d: factorized CountUpToCtx = %d, want exactly %d", workers, limit, n, want)
			}
			if limit <= full && prof.FactorizedPrefixes == 0 {
				t.Errorf("workers=%d limit=%d: budget path did not engage the factorized tier", workers, limit)
			}
		}
	}
}

// TestEffectiveBatchSize pins the plan-adaptive batch-size rule: an
// explicit BatchSize is authoritative, depth scales the default, and
// tiny estimated cardinalities halve the capacity down to the floor.
func TestEffectiveBatchSize(t *testing.T) {
	if got := AdaptiveBatchSize(1); got != DefaultBatchSize/4 {
		t.Errorf("AdaptiveBatchSize(1) = %d, want %d", got, DefaultBatchSize/4)
	}
	if got := AdaptiveBatchSize(2); got != DefaultBatchSize/2 {
		t.Errorf("AdaptiveBatchSize(2) = %d, want %d", got, DefaultBatchSize/2)
	}
	if got := AdaptiveBatchSize(5); got != DefaultBatchSize {
		t.Errorf("AdaptiveBatchSize(5) = %d, want %d", got, DefaultBatchSize)
	}

	g := smallRandomGraph(7, 80, 4)
	tri := Must(t, g, buildWCO(t, query.Q1(), []int{0, 1, 2}))
	// Explicit sizes win, including the clamp of sub-1 values.
	if got := tri.EffectiveBatchSize(RunConfig{BatchSize: 37}, 0); got != 37 {
		t.Errorf("explicit BatchSize: got %d, want 37", got)
	}
	// Triangle pipelines have one post-scan stage: depth-1 default.
	if got := tri.EffectiveBatchSize(RunConfig{}, 0); got > DefaultBatchSize/4 {
		t.Errorf("triangle adaptive batch = %d, want <= %d", got, DefaultBatchSize/4)
	}
	deep := Must(t, g, buildWCO(t, query.MustParse("a->b, b->c, c->d, d->e, e->f"), []int{0, 1, 2, 3, 4, 5}))
	if got := deep.EffectiveBatchSize(RunConfig{}, 0); got > DefaultBatchSize || got < minAdaptiveBatchSize {
		t.Errorf("deep-pipeline adaptive batch = %d, want in [%d, %d]", got, minAdaptiveBatchSize, DefaultBatchSize)
	}
	// A cardinality estimate far below the depth default halves the size
	// down to (but not past) the floor.
	tiny := *tri
	tiny.estCard = 1
	if got := tiny.EffectiveBatchSize(RunConfig{}, 0); got != minAdaptiveBatchSize {
		t.Errorf("tiny-cardinality adaptive batch = %d, want floor %d", got, minAdaptiveBatchSize)
	}
	tiny.estCard = 0 // unknown estimate: no clamp
	if got := tiny.EffectiveBatchSize(RunConfig{}, 0); got != DefaultBatchSize/4 {
		t.Errorf("unknown-cardinality adaptive batch = %d, want %d", got, DefaultBatchSize/4)
	}

	// A limit caps the rows the run is expected to deliver: the clamp sees
	// min(estimate, limit). Limit 0 is no limit; an explicit size still wins.
	big := *deep
	big.estCard = 1e6
	for _, tc := range []struct {
		estCard float64
		limit   int64
		want    int
	}{
		{1e6, 0, DefaultBatchSize},
		{1e6, 1 << 40, DefaultBatchSize},   // limit ≫ estimate: the estimate rules
		{1e6, 100, DefaultBatchSize / 4},   // limit ≪ estimate: 256 ≤ 4·100 < 512
		{1e6, 1, minAdaptiveBatchSize},     // floor unchanged
		{50, 100, DefaultBatchSize / 8},    // estimate below the limit: 128 ≤ 4·50 < 256
		{0, 100, DefaultBatchSize / 4},     // no estimate: the limit alone
		{1, 1 << 40, minAdaptiveBatchSize}, // limit ≫ a tiny estimate
	} {
		big.estCard = tc.estCard
		if got := big.EffectiveBatchSize(RunConfig{}, tc.limit); got != tc.want {
			t.Errorf("estCard=%g limit=%d: adaptive batch = %d, want %d", tc.estCard, tc.limit, got, tc.want)
		}
	}
	if got := big.EffectiveBatchSize(RunConfig{BatchSize: 37}, 1); got != 37 {
		t.Errorf("explicit BatchSize under a limit: got %d, want 37", got)
	}

	// Only the driver pipeline follows the limit: a hybrid plan's build
	// pipeline runs to completion and keeps the plan-adaptive size.
	hj, _ := compiledHashJoin(t)
	hj.estCard = 1e6
	var stopped atomic.Bool
	rc := &runContext{ctx: context.Background(), cp: hj, batch: hj.EffectiveBatchSize(RunConfig{}, 10), buildBatch: hj.EffectiveBatchSize(RunConfig{}, 0)}
	for i, pipe := range hj.pipes {
		want := rc.buildBatch
		if pipe.feeds == nil {
			want = minAdaptiveBatchSize
		}
		if w := newWorker(rc, pipe, pipe.feeds == nil, nil, &stopped, nil); w.batchSize != want {
			t.Errorf("pipeline %d (build=%v) under limit 10: batch %d, want %d", i, pipe.feeds != nil, w.batchSize, want)
		}
	}
	if rc.buildBatch <= minAdaptiveBatchSize {
		t.Fatalf("build batch %d does not differ from the limited driver's; fixture proves nothing", rc.buildBatch)
	}
}

// Must compiles p over g, failing the test on error.
func Must(t testing.TB, g *graph.Graph, p *plan.Plan) *CompiledPlan {
	t.Helper()
	cp, err := Compile(g, p)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// TestWorkerPoolReuseAcrossRuns checks the worker-pool satellite: after
// a warm-up run, repeated counts on the same CompiledPlan reuse pooled
// worker scratch instead of rebuilding stage states and column batches,
// keeping per-run allocations to a small constant independent of the
// graph and pipeline depth.
func TestWorkerPoolReuseAcrossRuns(t *testing.T) {
	g := datagen.Epinions(1)
	for _, cfg := range []RunConfig{
		{NoFactorize: true},
		{},
	} {
		cp := Must(t, g, buildWCO(t, query.Q4(), []int{0, 1, 2, 3}))
		if _, _, err := cp.CountCtx(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, _, err := cp.CountCtx(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
		})
		// The per-run envelope (runContext, stopped flag, profile
		// bookkeeping) allocates; the worker's column batches and stage
		// scratch must not. The bound is loose enough for harness noise
		// but far below one allocation per stage buffer. Under -race
		// sync.Pool drops a quarter of its puts, so only the counts run.
		if !raceEnabled && allocs > 25 {
			t.Errorf("cfg=%+v: steady-state Count allocates %.0f times per run, want <= 25", cfg, allocs)
		}
	}
}

// steadyFactorizedWorker compiles a star-suffix plan over g and returns
// a warmed-up batch worker whose factorized tail has reached steady
// state.
func steadyFactorizedWorker(tb testing.TB, g *graph.Graph) (*worker, int) {
	tb.Helper()
	// All three extends anchor only on the scanned (a, b) pair — c reads
	// both, d and e read a — so the whole post-scan chain factorizes.
	star := query.MustParse("a->b, a->c, b->c, a->d, a->e")
	cp := Must(tb, g, buildWCO(tb, star, []int{0, 1, 2, 3, 4}))
	if cp.TailLen() != 3 {
		tb.Fatalf("tail = %d operators, want 3", cp.TailLen())
	}
	var cfg RunConfig
	rc := &runContext{ctx: context.Background(), cp: cp, cfg: cfg, batch: cp.EffectiveBatchSize(cfg, 0)}
	var stopped atomic.Bool
	w := newWorker(rc, cp.pipes[len(cp.pipes)-1], true, nil, &stopped, nil)
	n := g.NumVertices()
	w.runBatchRange(0, n)
	w.flushBatches()
	return w, n
}

// BenchmarkFactorizedCountSteadyState is the CI-guarded steady-state
// benchmark of the factorized tier: a triangle with a 2-leaf star over
// Epinions, counted by cross-product arithmetic. CI asserts 0 allocs/op.
func BenchmarkFactorizedCountSteadyState(b *testing.B) {
	g := datagen.Epinions(1)
	w, n := steadyFactorizedWorker(b, g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.runBatchRange(0, n)
		w.flushBatches()
	}
}
