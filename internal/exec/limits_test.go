package exec

import (
	"context"
	"testing"

	"graphflow/internal/datagen"
	"graphflow/internal/plan"
	"graphflow/internal/query"
)

func TestCountUpToStopsEarly(t *testing.T) {
	g := datagen.Amazon(1)
	q := query.Q1()
	p := buildWCO(t, q, []int{0, 1, 2})
	full, _, err := countPlan(g, p, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if full < 100 {
		t.Skipf("too few triangles (%d)", full)
	}
	n, _, err := Must(t, g, p).CountUpToCtx(context.Background(), RunConfig{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("capped count = %d, want 10", n)
	}
	// A limit above the total returns the exact count.
	n, _, err = Must(t, g, p).CountUpToCtx(context.Background(), RunConfig{}, full+1000)
	if err != nil {
		t.Fatal(err)
	}
	if n != full {
		t.Errorf("uncapped CountUpToCtx = %d, want %d", n, full)
	}
}

func TestMaxBuildRows(t *testing.T) {
	g := datagen.Amazon(1)
	q := query.Q8()
	left := buildWCO(t, q, []int{0, 1, 2}).Root
	right := buildWCO(t, q, []int{2, 3, 4}).Root
	hj, err := plan.NewHashJoin(left, right)
	if err != nil {
		t.Fatal(err)
	}
	p := &plan.Plan{Query: q, Root: hj}
	// A tiny budget must trip the guard.
	_, _, err = countPlan(g, p, RunConfig{MaxBuildRows: 5})
	if err != ErrBuildTooLarge {
		t.Errorf("expected ErrBuildTooLarge, got %v", err)
	}
	// A generous budget must not change the result.
	want, _, err := countPlan(g, p, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := countPlan(g, p, RunConfig{MaxBuildRows: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("budgeted count = %d, want %d", got, want)
	}
}

func TestCountUpToPropagatesBuildLimit(t *testing.T) {
	g := datagen.Amazon(1)
	q := query.Q8()
	left := buildWCO(t, q, []int{0, 1, 2}).Root
	right := buildWCO(t, q, []int{2, 3, 4}).Root
	hj, err := plan.NewHashJoin(left, right)
	if err != nil {
		t.Fatal(err)
	}
	p := &plan.Plan{Query: q, Root: hj}
	_, _, err = Must(t, g, p).CountUpToCtx(context.Background(), RunConfig{MaxBuildRows: 5}, 1000)
	if err != ErrBuildTooLarge {
		t.Errorf("CountUpToCtx dropped MaxBuildRows: %v", err)
	}
}

// TestMaxBuildRowsBoundary pins the cap to the row: a build side of
// exactly N rows passes MaxBuildRows = N and fails N − 1 with
// ErrBuildTooLarge — whole batches at a time or a row a batch, one worker or
// several, through Count and through CountUpToCtx — and the table a refused
// build left in the pool serves the next run.
func TestMaxBuildRowsBoundary(t *testing.T) {
	cp, want := compiledHashJoin(t)
	_, prof, err := cp.CountCtx(context.Background(), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	n := prof.HashedTuples
	if n < 100 {
		t.Fatalf("build side of %d rows; fixture too small", n)
	}
	for _, cfg := range []RunConfig{
		{}, {BatchSize: 1}, {BatchSize: 64},
		{Workers: 4}, {Workers: 4, BatchSize: 3}, {Workers: 4, BatchSize: 1},
	} {
		cfg.MaxBuildRows = n - 1
		if _, _, err := cp.CountCtx(context.Background(), cfg); err != ErrBuildTooLarge {
			t.Errorf("cfg=%+v: %d build rows under a cap of %d: err = %v, want ErrBuildTooLarge", cfg, n, n-1, err)
		}
		if _, _, err := cp.CountUpToCtx(context.Background(), cfg, 5); err != ErrBuildTooLarge {
			t.Errorf("cfg=%+v: CountUpToCtx under a cap of %d: err = %v, want ErrBuildTooLarge", cfg, n-1, err)
		}
		cfg.MaxBuildRows = n
		if got, _, err := cp.CountCtx(context.Background(), cfg); err != nil || got != want {
			t.Errorf("cfg=%+v: cap of exactly %d rows: count = %d, %v; want %d", cfg, n, got, err, want)
		}
		if got, _, err := cp.CountUpToCtx(context.Background(), cfg, 5); err != nil || got != 5 {
			t.Errorf("cfg=%+v: CountUpToCtx(5) at the cap = %d, %v", cfg, got, err)
		}
	}
}
