package exec

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"graphflow/internal/faultinject"
	"graphflow/internal/graph"
	"graphflow/internal/plan"
	"graphflow/internal/query"
	"graphflow/internal/resource"
)

// assertGoroutinesReturn fails if the live goroutine count has not
// returned to the pre-run baseline within a grace period — the
// executor must not leak workers on abort, panic or cancellation.
func assertGoroutinesReturn(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d live, baseline %d\n%s", runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// compiledHashJoin compiles Q8's two-triangle hybrid plan over a graph
// big enough that the build side does real work.
func compiledHashJoin(t *testing.T) (*CompiledPlan, int64) {
	t.Helper()
	cp := Must(t, smallRandomGraph(4, 800, 20), twoTriangles(t))
	want, _, err := cp.CountCtx(context.Background(), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return cp, want
}

// TestBudgetAbortReturnsErrBudgetExceeded pins the per-query budget
// contract: a run whose metered allocations exceed the budget aborts
// with a BudgetError wrapping ErrBudgetExceeded, and the same plan
// (same pooled workers) still counts exactly afterwards.
func TestBudgetAbortReturnsErrBudgetExceeded(t *testing.T) {
	cp, _, total := compiledTriangle(t)
	for _, workers := range []int{1, 4} {
		baseline := runtime.NumGoroutine()
		b := resource.NewBudget(512, nil) // cannot cover even one batch checkout
		_, _, err := cp.CountCtx(context.Background(), RunConfig{Workers: workers, MemBudget: b})
		if !errors.Is(err, resource.ErrBudgetExceeded) {
			t.Fatalf("workers=%d: err = %v, want ErrBudgetExceeded", workers, err)
		}
		var be *resource.BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("workers=%d: err %v does not unwrap to *BudgetError", workers, err)
		}
		if be.Limit != 512 || be.Global {
			t.Errorf("workers=%d: BudgetError = %+v, want per-query limit 512", workers, be)
		}
		b.Close()
		assertGoroutinesReturn(t, baseline)

		n, _, err := cp.CountCtx(context.Background(), RunConfig{Workers: workers})
		if err != nil || n != total {
			t.Fatalf("workers=%d: post-abort count = %d, %v; want %d, nil", workers, n, err, total)
		}
	}
}

// TestGovernorExhaustionFlagsGlobal pins the process-wide ceiling: a
// query with no per-query limit still aborts when the shared governor
// pool runs dry, and the error is marked Global. Closing the budget
// returns the reservation so later queries run.
func TestGovernorExhaustionFlagsGlobal(t *testing.T) {
	cp, _, total := compiledTriangle(t)
	gov := resource.NewGovernor(1024)
	b := resource.NewBudget(0, gov)
	_, _, err := cp.CountCtx(context.Background(), RunConfig{MemBudget: b})
	var be *resource.BudgetError
	if !errors.As(err, &be) || !be.Global {
		t.Fatalf("err = %v, want a Global BudgetError", err)
	}
	b.Close()
	if gov.InUse() != 0 {
		t.Fatalf("governor holds %d bytes after Close", gov.InUse())
	}
	b2 := resource.NewBudget(0, resource.NewGovernor(1<<30))
	defer b2.Close()
	n, _, err := cp.CountCtx(context.Background(), RunConfig{MemBudget: b2})
	if err != nil || n != total {
		t.Fatalf("generous governor: count = %d, %v; want %d, nil", n, err, total)
	}
}

// TestBudgetDoesNotDisturbCountBudget pins the independence of the two
// budgets: CountUpToCtx's tuple budget still caps exactly while a generous
// memory budget meters the same run.
func TestBudgetDoesNotDisturbCountBudget(t *testing.T) {
	cp, _, total := compiledTriangle(t)
	limit := total / 2
	if limit < 1 {
		t.Skip("triangle fixture too small")
	}
	b := resource.NewBudget(1<<30, nil)
	defer b.Close()
	n, _, err := cp.CountUpToCtx(context.Background(), RunConfig{MemBudget: b}, limit)
	if err != nil || n != limit {
		t.Fatalf("CountUpToCtx = %d, %v; want %d, nil", n, err, limit)
	}
}

// TestBuildBudgetMatchesFootprint pins what the budget meters for a hash
// join: the capacity of the table's arena fragments, sealed rows and
// directory — nothing modelled, nothing per row. The table's share of the
// reservation is within a tenth of its footprint; a budget one byte short
// of what the whole query reserves fails it with the structured error;
// the run after that, on the workers and table the failed run left in the
// pools, counts exactly and reserves the same again; and the governor is
// back at zero whenever a budget is closed.
func TestBuildBudgetMatchesFootprint(t *testing.T) {
	cp, want := compiledHashJoin(t)
	build := cp.pipes[0]
	batch := cp.EffectiveBatchSize(RunConfig{}, 0)

	// The build pipeline with and without a table behind its sink.
	withTable := resource.NewBudget(0, nil)
	rc := &runContext{ctx: context.Background(), cp: cp, mem: withTable, tables: map[*plan.HashJoin]*hashTable{}, batch: batch, buildBatch: batch}
	if err := rc.buildTable(build, 1); err != nil {
		t.Fatal(err)
	}
	ht := rc.tables[build.feeds]
	bare := resource.NewBudget(0, nil)
	if _, err := (&runContext{ctx: context.Background(), cp: cp, mem: bare, batch: batch, buildBatch: batch}).runPipeline(build, 1, false, nil); err != nil {
		t.Fatal(err)
	}
	reserved, footprint := withTable.Used()-bare.Used(), ht.footprintBytes()
	if ht.len() == 0 || footprint < 2*int64(ht.len()*ht.rowWidth)*vertexIDBytes {
		t.Fatalf("table of %d rows × %d reports a footprint of %d bytes", ht.len(), ht.rowWidth, footprint)
	}
	if diff := reserved - footprint; diff > footprint/10 || diff < -footprint/10 {
		t.Errorf("build reserved %d bytes for a table holding %d", reserved, footprint)
	}

	for _, workers := range []int{1, 4} {
		gov := resource.NewGovernor(1 << 30)
		count := func(limit int64) (int64, int64, error) {
			b := resource.NewBudget(limit, gov)
			n, _, err := cp.CountCtx(context.Background(), RunConfig{Workers: workers, MemBudget: b})
			used := b.Used()
			b.Close()
			if gov.InUse() != 0 {
				t.Fatalf("workers=%d: governor holds %d bytes after Close", workers, gov.InUse())
			}
			return n, used, err
		}
		n, total, err := count(0)
		if err != nil || n != want {
			t.Fatalf("workers=%d: metered count = %d, %v; want %d", workers, n, err, want)
		}
		if total < footprint {
			t.Fatalf("workers=%d: query reserved %d bytes, less than its table's %d", workers, total, footprint)
		}
		// One worker reserves the same bytes every run, so the budget can be
		// cut to the byte; what parallel workers reserve depends on how the
		// morsels fell, so theirs starves the table outright.
		short, enough := total-1, total
		if workers > 1 {
			short, enough = footprint/2, 0
		}
		_, _, err = count(short)
		var be *resource.BudgetError
		if !errors.As(err, &be) || be.Limit != short || be.Global {
			t.Fatalf("workers=%d: budget %d: err = %v, want a per-query BudgetError", workers, short, err)
		}
		n, again, err := count(enough)
		if err != nil || n != want {
			t.Fatalf("workers=%d: count on the pooled workers and table, budget %d = %d, %v; want %d", workers, enough, n, err, want)
		}
		if workers == 1 && again != total {
			t.Errorf("pooled run reserved %d bytes, fresh run %d", again, total)
		}
	}
}

// TestInjectedPanicIsIsolated fires a deterministic panic at each
// instrumented point and checks the contract: the run fails with a
// stack-carrying *PanicError whose value is the injected fault, no
// goroutine leaks, and the same compiled plan counts exactly on the
// next run (poisoned workers were discarded, not pooled).
func TestInjectedPanicIsIsolated(t *testing.T) {
	tri, _, triTotal := compiledTriangle(t)
	hj, hjTotal := compiledHashJoin(t)
	// The poll case needs a plan big enough to cross the amortized
	// cancelCheckInterval; the tiny triangle fixture never polls.
	heavy := heavyPlan(t)
	heavyTotal, _, err := heavy.CountCtx(context.Background(), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		point faultinject.Point
		cp    *CompiledPlan
		total int64
	}{
		{faultinject.PointPoll, heavy, heavyTotal},
		{faultinject.PointWorkerStart, tri, triTotal},
		{faultinject.PointHashBuild, hj, hjTotal},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			baseline := runtime.NumGoroutine()
			inj := &faultinject.Injector{PanicEvery: 1, Points: 1 << tc.point}
			_, _, err := tc.cp.CountCtx(context.Background(), RunConfig{Workers: workers, Faults: inj})
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("%s workers=%d: err = %v, want *PanicError", tc.point, workers, err)
			}
			inj2, ok := pe.Value.(faultinject.Injected)
			if !ok || inj2.Point != tc.point {
				t.Fatalf("%s workers=%d: recovered value %v, want Injected at the same point", tc.point, workers, pe.Value)
			}
			if len(pe.Stack) == 0 {
				t.Errorf("%s workers=%d: PanicError carries no stack", tc.point, workers)
			}
			if inj.Panics() == 0 {
				t.Errorf("%s workers=%d: injector never fired", tc.point, workers)
			}
			assertGoroutinesReturn(t, baseline)

			n, _, err := tc.cp.CountCtx(context.Background(), RunConfig{Workers: workers})
			if err != nil || n != tc.total {
				t.Fatalf("%s workers=%d: post-panic count = %d, %v; want %d, nil", tc.point, workers, n, err, tc.total)
			}
		}
	}
}

// TestInjectedStallOnlySlows pins the slow-stage fault: sleeps at the
// pollpoint delay the run but never change its answer.
func TestInjectedStallOnlySlows(t *testing.T) {
	cp := heavyPlan(t)
	total, _, err := cp.CountCtx(context.Background(), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	inj := &faultinject.Injector{SleepEvery: 2, Sleep: time.Microsecond, Points: 1 << faultinject.PointPoll}
	n, _, err := cp.CountCtx(context.Background(), RunConfig{Faults: inj})
	if err != nil || n != total {
		t.Fatalf("stalled count = %d, %v; want %d, nil", n, err, total)
	}
	if inj.Sleeps() == 0 {
		t.Error("injector never stalled; fixture too small to reach a pollpoint")
	}
}

// flakyCtx reports Canceled after a fixed number of Err polls — a
// deterministic mid-run cancellation lever that does not depend on
// timer races. Done() stays nil (never readable): the engine must
// notice cancellation through its amortized Err polls alone.
type flakyCtx struct {
	context.Context
	polls atomic.Int64
	after int64
}

func (c *flakyCtx) Err() error {
	if c.polls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestCancelMidHashBuild cancels while the build side of a hybrid plan
// is still inserting: the run returns context.Canceled promptly, no
// goroutine outlives it, and the pooled workers serve the next run
// exactly.
func TestCancelMidHashBuild(t *testing.T) {
	cp, total := compiledHashJoin(t)
	for _, workers := range []int{1, 4} {
		baseline := runtime.NumGoroutine()
		ctx := &flakyCtx{Context: context.Background(), after: 2}
		_, _, err := cp.CountCtx(ctx, RunConfig{Workers: workers})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		assertGoroutinesReturn(t, baseline)

		n, _, err := cp.CountCtx(context.Background(), RunConfig{Workers: workers})
		if err != nil || n != total {
			t.Fatalf("workers=%d: post-cancel count = %d, %v; want %d, nil", workers, n, err, total)
		}
	}
}

// TestCancelMidFactorizedUnfold cancels from inside the emit callback
// while a factorized tail's odometer is mid-product: emission stops at
// the next poll with the odometer partially unfolded, the partial rows
// already emitted stand, and a clean rerun enumerates the exact total.
func TestCancelMidFactorizedUnfold(t *testing.T) {
	g := smallRandomGraph(7, 500, 30)
	q := query.MustParse("a->b, a->c, a->d")
	p := buildWCO(t, q, []int{0, 1, 2, 3})
	cp, err := Compile(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if cp.StarSuffixLen() < 2 {
		t.Fatalf("star suffix len %d; fixture no longer exercises the factorized tail", cp.StarSuffixLen())
	}
	var total int64
	fullProf, err := cp.RunCtx(context.Background(), RunConfig{}, func([]graph.VertexID) bool {
		total++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if fullProf.FactorizedPrefixes == 0 {
		t.Fatal("factorized tail never engaged")
	}
	if total < 10000 {
		t.Skipf("only %d rows; too few to observe mid-unfold cancellation", total)
	}

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var emitted int64
	_, err = cp.RunCtx(ctx, RunConfig{}, func([]graph.VertexID) bool {
		if emitted++; emitted == 1000 {
			cancel() // mid-unfold: the odometer is partway through a product
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if emitted < 1000 || emitted >= total {
		t.Fatalf("emitted %d rows before stopping, want in [1000, %d)", emitted, total)
	}
	assertGoroutinesReturn(t, baseline)

	var again int64
	if _, err := cp.RunCtx(context.Background(), RunConfig{}, func([]graph.VertexID) bool {
		again++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if again != total {
		t.Fatalf("post-cancel rerun enumerated %d rows, want %d", again, total)
	}
}

// TestPinnedBitmapBudget pins how the pin bitmap is paid for: it is
// ⌈V/64⌉ words of stage scratch, allocated when a stage first pins an
// operand and reserved from the query's memory budget at that moment —
// not at worker construction, so a run that never pins never pays. On a
// graph of 2^18 vertices (a 32 KiB bitmap) whose edges all sit among
// the first sixty, a 16 KiB budget covers the batches and the kernel
// buffers many times over and still ends in the structured budget
// error; with the cache off the same budget is enough; a budget that
// does cover the bitmap shows it in what the run used; and the worker
// the refused run left in the pool — bitmap dirty, reservation failed
// halfway through a batch — serves the next run exactly.
func TestPinnedBitmapBudget(t *testing.T) {
	const n = 1 << 18
	rng := rand.New(rand.NewSource(35))
	b := graph.NewBuilder(n)
	for u := 0; u < 60; u++ {
		for v := 0; v < 60; v++ {
			if u != v && rng.Float64() < 0.3 {
				b.AddEdge(graph.VertexID(u), graph.VertexID(v), 0)
			}
		}
	}
	g := b.MustBuild()
	const bitmapBytes = n / 8
	for name, p := range map[string]*plan.Plan{
		"triangle": buildWCO(t, query.Q1(), chainOrder(3)),
		"clique4":  buildWCO(t, cliqueQuery(4), chainOrder(4)),
	} {
		cp := Must(t, g, p)
		want := refCount(g, p)
		if want == 0 {
			t.Fatalf("%s: no matches; test is vacuous", name)
		}
		for _, cfg := range []RunConfig{
			{BatchSize: 64, NoFactorize: true},
			{BatchSize: 64},
			{BatchSize: 64, Workers: 4},
			{BatchSize: 64, NoFactorize: true, Workers: 4},
		} {
			small := resource.NewBudget(bitmapBytes/2, nil)
			cfg.MemBudget = small
			_, _, err := cp.CountCtx(context.Background(), cfg)
			var be *resource.BudgetError
			if !errors.As(err, &be) || be.Limit != bitmapBytes/2 || be.Global {
				t.Fatalf("%s cfg=%+v: err = %v, want a per-query BudgetError with limit %d", name, cfg, err, bitmapBytes/2)
			}
			small.Close()

			// The pooled worker of the refused run, reused.
			cfg.MemBudget = nil
			if n, _, err := cp.CountCtx(context.Background(), cfg); err != nil || n != want {
				t.Fatalf("%s cfg=%+v: count after the refused run = %d, %v; want %d", name, cfg, n, err, want)
			}

			roomy := resource.NewBudget(8*bitmapBytes, nil)
			cfg.MemBudget = roomy
			n, prof, err := cp.CountCtx(context.Background(), cfg)
			if err != nil || n != want || prof.Kernels.PinnedProbe == 0 {
				t.Fatalf("%s cfg=%+v: roomy count = %d (%d pinned probes), %v; want %d", name, cfg, n, prof.Kernels.PinnedProbe, err, want)
			}
			if used := roomy.Used(); used < bitmapBytes {
				t.Errorf("%s cfg=%+v: run reserved %d bytes, less than its %d-byte bitmap", name, cfg, used, bitmapBytes)
			}
			roomy.Close()

			// On workers that have never pinned (a pooled one is charged for
			// the bitmap it brings along, like for its other scratch).
			off := resource.NewBudget(bitmapBytes/2, nil)
			cfg.MemBudget, cfg.DisableCache = off, true
			if n, _, err := Must(t, g, p).CountCtx(context.Background(), cfg); err != nil || n != want {
				t.Fatalf("%s cfg=%+v: cache-off count under the small budget = %d, %v; want %d", name, cfg, n, err, want)
			}
			off.Close()
		}
	}
}
