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
