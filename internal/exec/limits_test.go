package exec

import (
	"context"
	"errors"
	"testing"

	"graphflow/internal/datagen"
	"graphflow/internal/plan"
	"graphflow/internal/query"
	"graphflow/internal/resource"
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

func TestCountUpToPropagatesBuildLimit(t *testing.T) {
	g := datagen.Amazon(1)
	q := query.Q8()
	left := buildWCO(t, q, []int{0, 1, 2}).Root
	right := buildWCO(t, q, []int{2, 3, 4}).Root
	hj, err := plan.NewHashJoin(left, right)
	if err != nil {
		t.Fatal(err)
	}
	cp := Must(t, g, &plan.Plan{Query: q, Root: hj})
	// What a whole run reserves: the build table is most of it, so
	// half of that stops the run in its build, before any match is found.
	meter := resource.NewBudget(0, nil)
	if _, _, err := cp.CountCtx(context.Background(), RunConfig{MemBudget: meter}); err != nil {
		t.Fatal(err)
	}
	half := resource.NewBudget(meter.Used()/2, nil)
	if _, _, err := cp.CountUpToCtx(context.Background(), RunConfig{MemBudget: half}, 1000); !errors.Is(err, resource.ErrBudgetExceeded) {
		t.Errorf("CountUpToCtx under half the %d bytes a run reserves: err = %v, want ErrBudgetExceeded", meter.Used(), err)
	}
}
