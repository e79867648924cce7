package exec

import (
	"context"
	"errors"
	"testing"
	"time"

	"graphflow/internal/graph"
	"graphflow/internal/query"
)

// heavyPlan returns a compiled WCO plan whose full evaluation takes long
// enough (hundreds of milliseconds at least) that mid-run cancellation is
// observable: a 4-clique over a dense random graph.
func heavyPlan(t testing.TB) *CompiledPlan {
	t.Helper()
	return heavyPlanDeg(t, 60)
}

// heavyPlanDeg is heavyPlan over a graph with deg random out-edges per
// vertex.
func heavyPlanDeg(t testing.TB, deg int) *CompiledPlan {
	t.Helper()
	g := smallRandomGraph(7, 2000, deg)
	q := query.MustParse("a->b, a->c, a->d, b->c, b->d, c->d")
	p := buildWCO(t, q, []int{0, 1, 2, 3})
	cp, err := Compile(g, p)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func TestCountCtxExpiredContextReturnsImmediately(t *testing.T) {
	cp := heavyPlan(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, _, err := cp.CountCtx(ctx, RunConfig{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("cancelled run took %v, want near-instant", el)
	}
}

// TestCountCtxDeadlineBoundsLatency is the acceptance test for the
// amortized cancellation check: a WCO-heavy count whose context expires
// mid-run must return context.DeadlineExceeded well before the full
// evaluation would have finished.
//
// The graph doubles its degree until the uncancelled count runs for at
// least 100ms, so a fast machine still sees the deadline expire mid-run.
func TestCountCtxDeadlineBoundsLatency(t *testing.T) {
	var cp *CompiledPlan
	var fullDur time.Duration
	for deg := 60; ; deg *= 2 {
		cp = heavyPlanDeg(t, deg)
		full := time.Now()
		n, _, err := cp.CountCtx(context.Background(), RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		fullDur = time.Since(full)
		if fullDur >= 100*time.Millisecond {
			break
		}
		if deg >= 480 {
			t.Skipf("full count of %d matches at degree %d took only %v; too fast to observe mid-run cancellation", n, deg, fullDur)
		}
	}

	const deadline = 20 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, _, err := cp.CountCtx(ctx, RunConfig{})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// The bound is deliberately loose (scheduler noise, slow CI), but far
	// below fullDur: the run must not have drained the plan.
	if elapsed > fullDur/2 && elapsed > 500*time.Millisecond {
		t.Errorf("cancellation latency %v (deadline %v, full run %v): not bounded", elapsed, deadline, fullDur)
	}
}

func TestCountCtxParallelCancellation(t *testing.T) {
	cp := heavyPlan(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := cp.CountCtx(ctx, RunConfig{Workers: 4})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("parallel cancelled run took %v", el)
	}
}

func TestRunCtxEarlyStopIsNotAnError(t *testing.T) {
	cp, _, _ := compiledTriangle(t)
	seen := 0
	_, err := cp.RunCtx(context.Background(), RunConfig{}, func([]graph.VertexID) bool {
		seen++
		return seen < 3
	})
	if err != nil {
		t.Fatalf("early stop returned error %v", err)
	}
	if seen != 3 {
		t.Errorf("emit called %d times, want 3", seen)
	}
}

// TestEntryPointsHonorCancellation runs every way into a compiled plan
// under a context that is already cancelled and under one whose deadline
// passes mid-run, sequentially and with workers: each returns the
// context's error.
func TestEntryPointsHonorCancellation(t *testing.T) {
	cp := heavyPlan(t)
	entries := map[string]func(context.Context, RunConfig) error{
		"RunCtx": func(ctx context.Context, cfg RunConfig) error {
			_, err := cp.RunCtx(ctx, cfg, func([]graph.VertexID) bool { return true })
			return err
		},
		"CountCtx": func(ctx context.Context, cfg RunConfig) error {
			_, _, err := cp.CountCtx(ctx, cfg)
			return err
		},
		"CountUpToCtx": func(ctx context.Context, cfg RunConfig) error {
			_, _, err := cp.CountUpToCtx(ctx, cfg, 1<<62)
			return err
		},
		"AnalyzeCtx": func(ctx context.Context, cfg RunConfig) error {
			_, _, err := cp.AnalyzeCtx(ctx, cfg)
			return err
		},
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range entries {
		for _, workers := range []int{1, 4} {
			cfg := RunConfig{Workers: workers}
			if err := run(cancelled, cfg); !errors.Is(err, context.Canceled) {
				t.Errorf("%s workers=%d, cancelled: err = %v, want context.Canceled", name, workers, err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			err := run(ctx, cfg)
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("%s workers=%d, deadline mid-run: err = %v, want context.DeadlineExceeded", name, workers, err)
			}
		}
	}
}

// TestCountUpToCtxHonorsWorkers checks the cap on every engine: a limit
// below the total is exact, one above it and one <= 0 (no cap) count
// everything.
func TestCountUpToCtxHonorsWorkers(t *testing.T) {
	cp, _, total := compiledTriangle(t)
	half := total / 2
	if half < 1 {
		t.Skip("triangle fixture too small")
	}
	configs := map[string]RunConfig{
		"batch":      {NoFactorize: true},
		"workers=4":  {Workers: 4},
		"factorized": {},
		"bs=1":       {BatchSize: 1},
	}
	for name, cfg := range configs {
		for _, tc := range []struct{ limit, want int64 }{
			{half, half},
			{total + 100, total},
			{0, total},
			{-1, total},
		} {
			n, _, err := cp.CountUpToCtx(context.Background(), cfg, tc.limit)
			if err != nil {
				t.Fatal(err)
			}
			if n != tc.want {
				t.Errorf("%s: CountUpToCtx(%d) = %d, want %d", name, tc.limit, n, tc.want)
			}
		}
	}
}
