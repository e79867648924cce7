package exec

import (
	"context"
	"errors"
	"sync"
	"testing"

	"graphflow/internal/adaptive"
	"graphflow/internal/catalogue"
	"graphflow/internal/datagen"
	"graphflow/internal/graph"
	"graphflow/internal/optimizer"
	"graphflow/internal/plan"
	"graphflow/internal/query"
	"graphflow/internal/resource"
)

var epinionsCat = sync.OnceValue(func() *catalogue.Catalogue {
	return catalogue.Build(datagen.Epinions(1), catalogue.Config{H: 2, Z: 200, MaxInstances: 100, Seed: 1})
})

// routedPlan is a chorded 4-cycle over g (Epinions) as a SCAN under two
// E/I operators for adjacent query vertices (so neither ordering is one
// factorized tail), compiled with adaptive routing between its two
// orderings — which the data takes both of.
func routedPlan(tb testing.TB, g *graph.Graph) (*CompiledPlan, *plan.Plan) {
	tb.Helper()
	p := buildWCO(tb, query.MustParse("a->b, b->c, c->d, d->a, b->d"), []int{0, 1, 2, 3})
	routes := optimizer.Routes(p, epinionsCat(), adaptive.MaxOrderings)
	if routes == nil || len(routes.Chains) != 2 {
		tb.Fatalf("want two candidate orderings, got %+v", routes)
	}
	return Must(tb, g, p).Adaptive(routes), p
}

// TestRouterCounters: an adaptive run reports through the counters of the
// stages it is made of — what the separate evaluator never did: carried
// sets are out of reach of a two-operator chain, but the cache, the
// pinned operands and the factorized tail all serve it, under every run
// configuration, for the reference count.
func TestRouterCounters(t *testing.T) {
	g := datagen.Epinions(1)
	cp, p := routedPlan(t, g)
	want := refCount(g, p)
	for _, cfg := range []RunConfig{
		{NoFactorize: true},
		{},
		{Workers: 4},
		{DisableCache: true},
		{DisableCache: true, NoFactorize: true},
		{BatchSize: 1, NoFactorize: true},
		{BatchSize: 1, Workers: 4},
	} {
		n, prof, err := cp.CountCtx(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if n != want || prof.Matches != want {
			t.Errorf("%+v: counted %d (profile %d), reference %d", cfg, n, prof.Matches, want)
		}
		if prof.Reroutes == 0 {
			t.Errorf("%+v: nothing rerouted", cfg)
		}
		// A one-row batch holds no run of two rows to pin an operand for.
		if (prof.Kernels.PinnedProbe > 0) == (cfg.DisableCache || cfg.BatchSize == 1) {
			t.Errorf("%+v: %d pinned probes", cfg, prof.Kernels.PinnedProbe)
		}
		if (prof.FactorizedAvoided > 0) == cfg.NoFactorize {
			t.Errorf("%+v: %d matches counted on the factorized form", cfg, prof.FactorizedAvoided)
		}
	}
}

// TestRouterPooledReuse: a pooled worker keeps the orderings it built, so
// a re-run neither rebuilds them nor forgets to charge them to the new
// run's budget.
func TestRouterPooledReuse(t *testing.T) {
	g := datagen.Epinions(1)
	cp, _ := routedPlan(t, g)
	var cfg RunConfig
	want, _, err := cp.CountCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	gov := resource.NewGovernor(1 << 30)
	var charged [2]int64
	for i := range charged {
		mem := resource.NewBudget(0, gov)
		cfg.MemBudget = mem
		n, _, err := cp.CountCtx(context.Background(), cfg)
		if err != nil || n != want {
			t.Fatalf("run %d: %d, %v; want %d", i, n, err, want)
		}
		charged[i] = mem.Used()
		mem.Close()
	}
	if charged[0] == 0 || charged[1] < charged[0] {
		t.Errorf("budget charged %d bytes, then %d for the pooled worker: the orderings it kept were not charged again", charged[0], charged[1])
	}
	if raceEnabled {
		return // sync.Pool drops a quarter of its puts under -race
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := cp.CountCtx(context.Background(), RunConfig{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 25 {
		t.Errorf("a pooled adaptive re-run allocates %.0f times; its orderings are being rebuilt", allocs)
	}
}

// TestRouterChargesOrderings: an ordering built in the middle of a run is
// charged like everything else — the run reserves more than the fixed
// plan's by at least the second ordering's batches, and a budget too
// small for it fails the query with the structured error instead of
// letting the run grow.
func TestRouterChargesOrderings(t *testing.T) {
	g := datagen.Epinions(1)
	used := func(cp *CompiledPlan, limit int64) (int64, error) {
		mem := resource.NewBudget(limit, nil)
		defer mem.Close()
		_, _, err := cp.CountCtx(context.Background(), RunConfig{BatchSize: 1024, MemBudget: mem})
		return mem.Used(), err
	}
	cp, p := routedPlan(t, g)
	fixed, err := used(Must(t, g, p), 0)
	if err != nil {
		t.Fatal(err)
	}
	need, err := used(cp, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The second ordering: a 3-wide and a 4-wide output batch.
	if extra := int64(3+4) * 1024 * vertexIDBytes; need < fixed+extra {
		t.Errorf("the adaptive run reserved %d bytes, the fixed one %d; want at least %d more", need, fixed, extra)
	}
	// Fresh plan: nothing pooled, so the second ordering is built mid-run.
	cp, _ = routedPlan(t, g)
	if _, err := used(cp, need-1); !errors.Is(err, resource.ErrBudgetExceeded) {
		t.Errorf("one byte short of the %d the run needs: err = %v, want ErrBudgetExceeded", need, err)
	}
}

// TestRouterHandsOnOncePerBatch: under a Limit the router's orderings hand
// their partial batches on once per router input batch, not once per
// routed run — a run can be a single row, and flushing each would send
// near-row-at-a-time batches down the chain. The chorded 4-cycle is
// scanned on its chord, so the two orderings' picks change from row to
// row. emit never stops the run, so it covers the whole graph told the
// limit or not. Told it, each of the two orderings' first stages adds at
// most one partial batch per router input batch, and each second stage
// one per batch it is handed: those partial batches or the full ones the
// untold run dispatches as well.
func TestRouterHandsOnOncePerBatch(t *testing.T) {
	g := datagen.Epinions(1)
	p := buildWCO(t, query.MustParse("a->b, b->c, c->d, d->a, b->d"), []int{1, 3, 0, 2})
	routes := optimizer.Routes(p, epinionsCat(), adaptive.MaxOrderings)
	if routes == nil || len(routes.Chains) != 2 || len(routes.Chains[0]) != 2 {
		t.Fatalf("want two orderings of two operators, got %+v", routes)
	}
	cp := Must(t, g, p).Adaptive(routes)
	cfg := RunConfig{NoFactorize: true, BatchSize: 1024}
	run := func(limit int64) Profile {
		prof, err := cp.RunCtx(context.Background(), cfg, limit, func([]graph.VertexID) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		return prof
	}
	if !cp.stopsEarly(1) {
		t.Fatalf("estimate %g: a limit of 1 does not pipeline the run", cp.estCard)
	}
	told, untold := run(1), run(0)
	if told.Matches != untold.Matches || told.Reroutes != untold.Reroutes {
		t.Fatalf("told the limit: %d matches, %d reroutes; not told: %d, %d", told.Matches, told.Reroutes, untold.Matches, untold.Reroutes)
	}
	bound := 2*untold.Batches.Extend + 4*told.Batches.Scan
	if told.Batches.Extend > bound || told.Reroutes <= bound {
		t.Errorf("told the limit: %d extend batches over %d scan batches and %d reroutes; want at most %d (not told: %d), and more reroutes than that",
			told.Batches.Extend, told.Batches.Scan, told.Reroutes, bound, untold.Batches.Extend)
	}
	t.Logf("extend batches %d told, %d not told; %d scan batches, %d reroutes", told.Batches.Extend, untold.Batches.Extend, told.Batches.Scan, told.Reroutes)
}
