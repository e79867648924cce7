// Package exec evaluates query plans against a graph (paper Section 7).
//
// Execution is split into two phases. Compile lowers a plan into an
// immutable CompiledPlan: flattened push-based pipelines — each drives
// columnar batches of tuples from a SCAN through a chain of
// EXTEND/INTERSECT and hash-join probes — with all layout work (stage
// widths, probe slot maps, join key slots) done once. Running a
// CompiledPlan materialises a fresh per-run context holding every piece
// of mutable state: hash tables, tuple batches, intersection caches and
// profiling counters. WCO, BJ and hybrid plans all run through this one
// engine; its tests check it against references that share no code with
// it (see batch.go). Because the compiled form is never written after
// construction, one CompiledPlan can be executed by many goroutines at
// the same time — the property prepared queries rely on.
//
// A CompiledPlan runs in the paper's three ways, each bounded by a
// context: CountCtx counts every match, CountUpToCtx counts up to an
// output cap (Appendix C), and RunCtx enumerates; AnalyzeCtx is a
// counting run that also collects per-operator statistics. RunCtx does
// not serialise its callback: with cfg.Workers > 1 every worker calls
// emit concurrently, and a callback that needs one caller at a time
// brings its own lock.
//
// The E/I operator implements the intersection cache of Section 3.1, and
// every operator maintains the profiling counters (i-cost, intermediate
// matches, cache hits) that the paper's demonstrative experiments report.
//
// The parallel runtime follows Section 7: each worker gets its own copy
// of the pipeline state and consumes ranges of the SCAN's vertices from a
// shared work queue (work stealing over scan ranges).
package exec

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"graphflow/internal/faultinject"
	"graphflow/internal/graph"
	"graphflow/internal/plan"
	"graphflow/internal/resource"
)

// Profile aggregates the runtime counters of one plan execution.
type Profile struct {
	// ICost is the actual intersection cost: the summed sizes of the lists
	// accessed by E/I operators (Equation 1). Cached intersections access
	// no lists and contribute nothing; an intersection seeded with a
	// carried extension set accesses that set and the adjacency lists it
	// does not already cover.
	ICost int64
	// Intermediate is the number of partial matches produced by non-root
	// operators (the "part. m." column of Tables 4-6).
	Intermediate int64
	// Matches is the number of results produced by the root.
	Matches int64
	// CacheHits counts E/I extensions served from the intersection cache.
	CacheHits int64
	// CarriedSets counts E/I intersections seeded with the extension set
	// their upstream stage carried down instead of re-reading the lists
	// that set already intersects (vectorized engine only; zero under
	// DisableCache). Each charges ICost the carried set's size plus the
	// lists it still read.
	CarriedSets int64
	// Reroutes counts the route-key runs an adaptive plan's router
	// (CompiledPlan.Adaptive) sent to an ordering other than the plan's own;
	// zero for a fixed plan.
	Reroutes int64
	// HashedTuples and ProbedTuples count hash-join build and probe work
	// (the n1/n2 of the paper's hash-join cost model).
	HashedTuples, ProbedTuples int64
	// Kernels tallies intersection-kernel dispatches by kind (merge,
	// gallop, pinned sweep) across every E/I operator. ICost stays
	// Equation 1's metric, so the two together show how much of the
	// nominal i-cost the pinned sweep short-circuited.
	Kernels graph.KernelCounters
	// Batches counts columnar batches dispatched per stage kind.
	Batches BatchCounters
	// FactorizedPrefixes counts prefix tuples evaluated by a
	// factorizedTail stage: for each, every star-suffix leaf's extension
	// set was computed (or served from a cache) exactly once.
	FactorizedPrefixes int64
	// FactorizedAvoided counts result tuples accounted for directly on
	// the factorized prefix × set₁ × … × setₖ form — counted into Matches
	// (or charged against a Limit budget) without ever being materialized.
	FactorizedAvoided int64
	// Stages attributes wall time to each operator kind. Sampling is
	// amortized to two time.Now calls per dispatched batch per stage
	// (allocation-free), so it is always on; under parallel runs the
	// numbers sum across workers — busy time per stage, not elapsed wall
	// clock.
	Stages StageNanos
}

// StageNanos is per-stage-kind attributed run time in nanoseconds:
// Scan covers adjacency reads and batch fills (plus morsel
// acquisition), Extend the E/I intersect fan-out, Probe the hash-probe
// lookups, Factorized the star-suffix tail, Build the hash-join
// build-side insert sink, and Emit the root sink's row delivery.
type StageNanos struct {
	Scan       int64
	Extend     int64
	Probe      int64
	Factorized int64
	Build      int64
	Emit       int64
}

// Add accumulates other into s.
func (s *StageNanos) Add(other StageNanos) {
	s.Scan += other.Scan
	s.Extend += other.Extend
	s.Probe += other.Probe
	s.Factorized += other.Factorized
	s.Build += other.Build
	s.Emit += other.Emit
}

// Total is the summed attributed time across all stage kinds.
func (s StageNanos) Total() int64 {
	return s.Scan + s.Extend + s.Probe + s.Factorized + s.Build + s.Emit
}

// Add accumulates other into p.
func (p *Profile) Add(other Profile) {
	p.ICost += other.ICost
	p.Intermediate += other.Intermediate
	p.Matches += other.Matches
	p.CacheHits += other.CacheHits
	p.CarriedSets += other.CarriedSets
	p.Reroutes += other.Reroutes
	p.HashedTuples += other.HashedTuples
	p.ProbedTuples += other.ProbedTuples
	p.Kernels.Add(other.Kernels)
	p.Batches.Add(other.Batches)
	p.FactorizedPrefixes += other.FactorizedPrefixes
	p.FactorizedAvoided += other.FactorizedAvoided
	p.Stages.Add(other.Stages)
}

// RunConfig carries the per-run execution knobs. The zero value is what
// a count of the DB runs: a sequential run with the intersection cache
// on, a plan-adaptive batch size, and the factorized tier on — a pipeline
// ending in a star-shaped suffix (trailing E/I stages whose targets are
// pairwise non-adjacent leaves off the prefix) evaluates it as one
// extension set per leaf per prefix row, prefix × set₁ × … × setₖ: a
// count multiplies set cardinalities, a limit is charged against the
// product, and enumeration lazily unfolds identical rows in identical
// order. CountCtx writes no row at the last stage: it adds the size of
// what that stage would fan out to the match count.
type RunConfig struct {
	// Workers is the number of parallel workers; <=1 means sequential.
	Workers int
	// DisableCache turns off the E/I intersection cache (Table 3's
	// "Cache Off" configuration).
	DisableCache bool
	// MaxBuildRows aborts execution when a hash-join build side
	// materialises more than this many tuples (0 = unlimited) — the
	// equivalent of the paper's Mm (out of memory) outcomes.
	MaxBuildRows int64
	// Deprecated: ignored. A run without emit counts (see RunConfig).
	FastCount bool
	// BatchSize is the row capacity of the engine's columnar tuple
	// batches. 0 picks a plan-adaptive capacity (see
	// CompiledPlan.EffectiveBatchSize); an explicit value stays
	// authoritative, with values below 1 clamping to 1.
	BatchSize int
	// Deprecated: ignored. Factorization is on unless NoFactorize is set.
	Factorized bool
	// NoFactorize turns the factorized tier off (an ablation: the star
	// suffix runs as ordinary E/I stages, and the last one's sets are
	// counted or written row by row).
	NoFactorize bool
	// MemBudget, when non-nil, meters this run's major allocators —
	// hash-join build tables, worker batch checkouts, extension-set
	// cache growth — against a per-query (and, through its governor, a
	// process-wide) memory ceiling. Exhaustion is observed at the
	// amortized //gf:pollpoint sites and surfaces as a *resource.
	// BudgetError wrapping resource.ErrBudgetExceeded; the steady-state
	// hot loops stay allocation-free. The budget is not closed by the
	// run — its owner returns the reservation to the governor.
	MemBudget *resource.Budget
	// Faults, when non-nil, is the fault-injection hook consulted at the
	// engine's instrumented points (pollpoints, worker start, hash-build
	// insert). Production runs leave it nil; the chaos harness installs
	// deterministic panic/stall schedules through it.
	Faults *faultinject.Injector
}

// runConfigKey is the context key WithRunConfig stores its hook under.
type runConfigKey struct{}

// WithRunConfig returns a copy of ctx carrying fn. Every query run under
// the returned context has fn applied to its RunConfig once the caller's
// options are mapped onto it and before the run reads it (ApplyRunConfig).
// It is how the module's own tests reach the ablation and fault knobs —
// the intersection cache, the factorized tier, fault injection — that no
// public option exposes. The hook travels with the context, so concurrent
// queries under different hooks each see only their own.
func WithRunConfig(ctx context.Context, fn func(*RunConfig)) context.Context {
	return context.WithValue(ctx, runConfigKey{}, fn)
}

// ApplyRunConfig applies the hook WithRunConfig attached to ctx, if any,
// to cfg. Without a hook it costs one context lookup and allocates
// nothing: only the hook's own copy escapes.
func ApplyRunConfig(ctx context.Context, cfg *RunConfig) {
	if fn, ok := ctx.Value(runConfigKey{}).(func(*RunConfig)); ok {
		c := *cfg
		fn(&c)
		*cfg = c
	}
}

// batchSize resolves an explicitly configured batch row capacity.
func (c *RunConfig) batchSize() int {
	switch {
	case c.BatchSize == 0:
		return DefaultBatchSize
	case c.BatchSize < 1:
		return 1
	}
	return c.BatchSize
}

// minAdaptiveBatchSize floors the cardinality clamp of the plan-adaptive
// batch-size rule: below this, per-batch dispatch overhead dominates.
const minAdaptiveBatchSize = 64

// AdaptiveBatchSize returns the depth-scaled default batch row capacity
// for a pipeline with the given number of stages above its scan. Shallow
// pipelines get small batches — a 2-stage triangle pipeline touches every
// column of every batch, so the scaffolding cost of wide 1024-row
// batches is pure overhead at that depth — while deep pipelines keep
// DefaultBatchSize to amortize per-batch dispatch across more stages.
func AdaptiveBatchSize(depth int) int {
	switch {
	case depth <= 1:
		return DefaultBatchSize / 4
	case depth == 2:
		return DefaultBatchSize / 2
	}
	return DefaultBatchSize
}

// EffectiveBatchSize reports the batch row capacity one run of cp under
// cfg uses: an explicit cfg.BatchSize is authoritative; otherwise the
// capacity is picked per plan — AdaptiveBatchSize of the deepest
// pipeline, halved down to the number of rows the run is expected to
// deliver when that is far smaller than the batch (never below
// minAdaptiveBatchSize). Expected rows are the optimizer's cardinality
// estimate, capped by limit (0 = none) for the driver pipeline of a run
// that stops after limit matches; build pipelines run to completion
// whatever the limit and take the size for limit 0.
func (cp *CompiledPlan) EffectiveBatchSize(cfg RunConfig, limit int64) int {
	if cfg.BatchSize != 0 {
		return cfg.batchSize()
	}
	depth := 0
	for _, p := range cp.pipes {
		if len(p.stages) > depth {
			depth = len(p.stages)
		}
	}
	bs := AdaptiveBatchSize(depth)
	rows := cp.estCard
	if limit > 0 && (rows <= 0 || float64(limit) < rows) {
		rows = float64(limit)
	}
	if rows > 0 {
		for bs > minAdaptiveBatchSize && float64(bs) > 4*rows {
			bs /= 2
		}
	}
	return bs
}

// ErrBuildTooLarge is returned when MaxBuildRows is exceeded.
var ErrBuildTooLarge = fmt.Errorf("exec: hash-join build side exceeds MaxBuildRows")

// vertexIDBytes is the memory-accounting unit: the budget meters tuple
// storage by the capacity of the flat VertexID (and equally wide offset)
// arrays that hold it.
const vertexIDBytes = 4

// PanicError is a worker panic recovered into a per-query error: the
// run drains cleanly (no leaked goroutines, no stuck admission slots)
// and the query fails with the panic value and captured stack instead
// of the process dying.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("exec: query panicked: %v", e.Value)
}

// runContext owns every piece of mutable state of one execution of a
// CompiledPlan: the materialised hash tables, the aggregate profile, and
// the optional per-operator analysis counters. A fresh runContext is
// created per run, so concurrent runs never share mutable state.
type runContext struct {
	cp      *CompiledPlan
	cfg     RunConfig
	ctx     context.Context
	tables  map[*plan.HashJoin]*hashTable
	analyze *nodeCounters
	profile Profile
	// batch is the resolved batch row capacity of this run's driver
	// pipeline, buildBatch that of its build pipelines (see
	// CompiledPlan.EffectiveBatchSize).
	batch, buildBatch int
	// countBudget, when non-nil, is the shared remaining-match allowance
	// of a factorized CountUpToCtx: each factorizedTail prefix atomically
	// claims min(product, remaining) and stops the run when it is
	// exhausted, so the total claimed never exceeds the limit even
	// across workers.
	countBudget *atomic.Int64
	// mem is the run's memory budget (nil = unmetered); see
	// RunConfig.MemBudget.
	mem *resource.Budget
	// faults is the fault-injection hook (nil in production).
	faults *faultinject.Injector
	// failure records the first worker panic recovered during the run;
	// runErr surfaces it as the run's error.
	failure atomic.Pointer[PanicError]
}

// fail records rec (with the current stack) as the run's failure; the
// first panic wins, later ones are dropped.
func (rc *runContext) fail(rec any) {
	rc.failure.CompareAndSwap(nil, &PanicError{Value: rec, Stack: debug.Stack()})
}

// recoverPanic converts a panic escaping a worker goroutine into the
// run's failure record: wg.Done (deferred after this, so run before it)
// always executes, sibling workers observe stopped, and the driver
// reports the failure through runErr — panic isolation for the whole
// parallel runtime.
func (rc *runContext) recoverPanic(stopped *atomic.Bool) {
	if rec := recover(); rec != nil {
		rc.fail(rec)
		stopped.Store(true)
	}
}

// runErr reports why the run ended early, in severity order: a
// recovered worker panic, then memory-budget exhaustion, then context
// cancellation.
func (rc *runContext) runErr() error {
	if pe := rc.failure.Load(); pe != nil {
		return pe
	}
	if rc.mem.Exceeded() {
		return rc.mem.Err()
	}
	return rc.ctx.Err()
}

// RunCtx evaluates the compiled plan, invoking emit for every match until
// emit returns false or ctx is cancelled or its deadline passes. The tuple
// slice passed to emit is only valid during the call and is laid out
// according to the plan root's Out(). When cfg.Workers > 1, emit is called
// from every worker goroutine concurrently and must be safe for that;
// after one call returns false, the other workers stop at their next scan
// vertex, so emit may still be called for the rows they hold. Early
// termination via emit is not an error; cancellation returns ctx's error
// together with the partial profile accumulated so far. Workers poll ctx
// every cancelCheckInterval produced tuples, so cancellation latency is
// bounded even mid-pipeline.
func (cp *CompiledPlan) RunCtx(ctx context.Context, cfg RunConfig, emit func([]graph.VertexID) bool) (Profile, error) {
	return cp.run(ctx, cfg, nil, emit, nil, 0)
}

// CountCtx evaluates the compiled plan and returns the number of matches
// and the execution profile (see RunCtx for ctx). On cancellation the
// partial count is returned alongside ctx's error.
func (cp *CompiledPlan) CountCtx(ctx context.Context, cfg RunConfig) (int64, Profile, error) {
	// A count runs emit-free: the last stage counts what it would fan out
	// (countsLast), a factorized tail its products, and the sink the rows
	// of a pipeline that is only a scan.
	prof, err := cp.run(ctx, cfg, nil, nil, nil, 0)
	return prof.Matches, prof, err
}

// CountUpToCtx is CountCtx stopping once limit matches have been produced
// (the output caps of the Appendix C experiments); a limit <= 0 caps
// nothing. Honors cfg.Workers: with parallel workers the count still stops
// at limit, but which matches are counted is nondeterministic.
func (cp *CompiledPlan) CountUpToCtx(ctx context.Context, cfg RunConfig, limit int64) (int64, Profile, error) {
	if limit <= 0 {
		return cp.CountCtx(ctx, cfg)
	}
	if !cfg.NoFactorize && cp.StarSuffixLen() > 0 {
		// Factorized limit: the tail charges each prefix's set-cardinality
		// product against a shared budget, so the cap is hit exactly
		// without unfolding a single suffix tuple.
		var budget atomic.Int64
		budget.Store(limit)
		prof, err := cp.run(ctx, cfg, nil, nil, &budget, limit)
		return prof.Matches, prof, err
	}
	var n atomic.Int64
	prof, err := cp.run(ctx, cfg, nil, func([]graph.VertexID) bool {
		// Workers may race past the cap by one tuple each before observing
		// the stop; the overshoot is clamped below, so the reported count
		// never exceeds limit.
		return n.Add(1) < limit
	}, nil, limit)
	return min(n.Load(), limit), prof, err
}

// run is the execution driver: it materialises the per-run context,
// builds every hash table, then drives the root pipeline. emit, when
// non-nil, must tolerate concurrent calls if cfg.Workers > 1 and returns
// false to request early termination. limit is the number of matches
// after which the caller stops the run (0 = it does not): it sizes the
// driver pipeline's batches, and countBudget, when non-nil, is the
// factorized count budget that enforces it (see runContext.countBudget).
func (cp *CompiledPlan) run(ctx context.Context, cfg RunConfig, analyze *nodeCounters, emit func([]graph.VertexID) bool, countBudget *atomic.Int64, limit int64) (Profile, error) {
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > runtime.NumCPU()*4 {
		workers = runtime.NumCPU() * 4
	}
	rc := &runContext{
		cp: cp, cfg: cfg, ctx: ctx,
		analyze: analyze, batch: cp.EffectiveBatchSize(cfg, limit), countBudget: countBudget,
		mem: cfg.MemBudget, faults: cfg.Faults,
	}
	if len(cp.pipes) > 1 {
		rc.tables = make(map[*plan.HashJoin]*hashTable, len(cp.pipes)-1)
		rc.buildBatch = cp.EffectiveBatchSize(cfg, 0)
		// Every worker is done with the tables once the pipelines have run.
		defer rc.releaseTables()
	}
	for _, pipe := range cp.pipes {
		if err := rc.runErr(); err != nil {
			return rc.profile, err
		}
		if pipe.feeds != nil {
			if err := rc.buildTable(pipe, workers); err != nil {
				return Profile{}, err
			}
			continue
		}
		prof, err := rc.runPipeline(pipe, workers, true, emit)
		if err != nil {
			return Profile{}, err
		}
		rc.profile.Add(prof)
	}
	// Workers unwind on early termination without an error of their own;
	// runErr is the single source of truth for why the run ended early:
	// a recovered panic, budget exhaustion, or the context.
	if err := rc.runErr(); err != nil {
		return rc.profile, err
	}
	return rc.profile, nil
}

// buildTable runs one build pipeline into its hash join's table and
// seals it for the probe side. The pipeline's workers append to the table
// themselves (worker.admitBuild), a batch at a time; storage comes from
// the pipeline's pool and goes back when the run ends.
func (rc *runContext) buildTable(pipe *compiledPipeline, workers int) error {
	ht, _ := pipe.tables.Get().(*hashTable)
	if ht == nil {
		ht = newHashTable(pipe.keySlots, pipe.outWidth)
	}
	ht.reset()
	rc.tables[pipe.feeds] = ht
	prof, err := rc.runPipeline(pipe, workers, false, nil)
	if err != nil {
		return err
	}
	if maxRows := rc.cfg.MaxBuildRows; maxRows > 0 && ht.admitted.Load() > maxRows {
		return ErrBuildTooLarge
	}
	// A build that was cut short (panic, budget, cancellation) is reported
	// by the driver loop's runErr; its partial table is never probed.
	if rc.runErr() == nil {
		start := time.Now()
		ht.seal(rc.mem)
		// The sort is the second half of building: the sink's stage slot.
		sealed := time.Since(start).Nanoseconds()
		prof.Stages.Build += sealed
		if rc.analyze != nil {
			rc.analyze.addNanos(pipe.node, sealed)
		}
	}
	prof.HashedTuples += int64(ht.len())
	// Build-side outputs are intermediate results.
	prof.Intermediate += int64(ht.len())
	rc.profile.Add(prof)
	return nil
}

// releaseTables returns the run's hash tables to their pipelines' pools.
func (rc *runContext) releaseTables() {
	for _, pipe := range rc.cp.pipes {
		if ht := rc.tables[pipe.feeds]; ht != nil {
			pipe.tables.Put(ht)
		}
	}
}

// runPipeline executes one pipeline with the given worker count. isRoot
// marks whether the pipeline's outputs are final matches rather than
// intermediate results. Parallel runs schedule the scan through a shared
// morsel queue (small vertex ranges dealt by an atomic cursor, split hub
// adjacency morsels stealable by any worker), so a single hub vertex does
// not pin its whole extension subtree on one worker.
func (rc *runContext) runPipeline(pipe *compiledPipeline, workers int, isRoot bool, emit func([]graph.VertexID) bool) (Profile, error) {
	n := rc.cp.graph.NumVertices()
	var stopped atomic.Bool
	if workers <= 1 {
		var prof Profile
		// The recover mirrors the parallel goroutine bodies: a panic
		// outside the worker's own recovered sections (construction, batch
		// flush bookkeeping) still lands in the run's failure record
		// instead of unwinding the caller.
		func() {
			defer rc.recoverPanic(&stopped)
			w := newWorker(rc, pipe, isRoot, emit, &stopped, nil)
			w.runRecovered(0, n)
			if !stopped.Load() {
				w.recovered(w.flushBatches)
			}
			w.finish()
			prof = w.profile
			w.release()
		}()
		return prof, nil
	}
	var wg sync.WaitGroup
	profs := make([]Profile, workers)
	q := newMorselQueue(n)
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			defer rc.recoverPanic(&stopped)
			w := newWorker(rc, pipe, isRoot, emit, &stopped, q)
			w.runWorkerLoop(q)
			w.finish()
			profs[wi] = w.profile
			w.release()
		}(wi)
	}
	wg.Wait()
	var total Profile
	for _, p := range profs {
		total.Add(p)
	}
	return total, nil
}
