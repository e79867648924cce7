package exec

import (
	"context"
	"sync"
	"testing"

	"graphflow/internal/graph"
	"graphflow/internal/plan"
	"graphflow/internal/query"
)

// compileTestPlan builds a small graph and a plan for the given pattern
// using a hand-rolled WCO chain (scan the first edge, extend by the
// remaining vertices in index order when possible).
func compiledTriangle(t *testing.T) (*CompiledPlan, *graph.Graph, int64) {
	t.Helper()
	b := graph.NewBuilder(64)
	// A couple of overlapping triangles plus noise edges.
	edges := [][2]int{
		{0, 1}, {1, 2}, {0, 2},
		{2, 3}, {3, 4}, {2, 4},
		{4, 5}, {5, 6}, {4, 6},
		{6, 7}, {7, 8},
		{10, 11}, {11, 12}, {10, 12}, {12, 13}, {10, 13},
	}
	for _, e := range edges {
		b.AddEdge(graph.VertexID(e[0]), graph.VertexID(e[1]), 0)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	q := query.MustParse("a->b, b->c, a->c")
	scan := plan.NewScan(q, q.Edges[0])
	ext, err := plan.NewExtend(q, scan, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := &plan.Plan{Query: q, Root: ext}
	cp, err := Compile(g, p)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := cp.CountCtx(context.Background(), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if want == 0 {
		t.Fatal("test graph has no triangles")
	}
	return cp, g, want
}

// TestCompiledPlanConcurrentRuns drives one CompiledPlan from many
// goroutines at once — sequential and parallel runs, counting and
// enumerating — and checks every run sees the full result set. Run under
// -race this is the core safety property of the compile-once/run-many
// split: no mutable state on the compiled side.
func TestCompiledPlanConcurrentRuns(t *testing.T) {
	cp, _, want := compiledTriangle(t)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := RunConfig{Workers: 1 + i%3, NoFactorize: i%2 == 0}
			var n int64
			if i%4 == 3 {
				// Enumerate through emit instead of counting.
				var mu sync.Mutex
				_, err := cp.RunCtx(context.Background(), cfg, 0, func(tuple []graph.VertexID) bool {
					mu.Lock()
					n++
					mu.Unlock()
					return true
				})
				if err != nil {
					errs <- err.Error()
					return
				}
			} else {
				var err error
				n, _, err = cp.CountCtx(context.Background(), cfg)
				if err != nil {
					errs <- err.Error()
					return
				}
			}
			if n != want {
				errs <- "wrong count"
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestRunCtxStopsEarly checks that RunCtx halts enumeration promptly once
// emit returns false, instead of draining the full result set.
func TestRunCtxStopsEarly(t *testing.T) {
	cp, _, want := compiledTriangle(t)
	if want < 2 {
		t.Skip("need at least two matches")
	}
	calls := 0
	prof, err := cp.RunCtx(context.Background(), RunConfig{}, 0, func([]graph.VertexID) bool {
		calls++
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("emit called %d times after requesting stop, want 1", calls)
	}
	if prof.Matches >= want {
		t.Errorf("profile shows %d matches; early stop should not drain all %d", prof.Matches, want)
	}
}

// TestCountUpToMatchesLimit checks the compiled CountUpToCtx cap.
func TestCountUpToMatchesLimit(t *testing.T) {
	cp, _, want := compiledTriangle(t)
	if want < 2 {
		t.Skip("need at least two matches")
	}
	n, _, err := cp.CountUpToCtx(context.Background(), RunConfig{}, want-1)
	if err != nil {
		t.Fatal(err)
	}
	if n != want-1 {
		t.Errorf("CountUpToCtx = %d, want %d", n, want-1)
	}
}
