// Package graphflow is a Go reimplementation of the subgraph-query
// optimizer of Mhedhbi & Salihoglu, "Optimizing Subgraph Queries by
// Combining Binary and Worst-Case Optimal Joins" (PVLDB 12(11), 2019),
// together with the Graphflow-style evaluation engine it plans for.
//
// A DB wraps a versioned directed, labelled graph — an immutable CSR
// base plus a mutable delta overlay (internal/live) — and a subgraph
// catalogue (the optimizer's statistics). Queries are textual patterns:
//
//	db, _ := graphflow.NewFromDataset("Epinions", 1, nil)
//	n, _ := db.Count("a->b, b->c, a->c", nil) // asymmetric triangles
//
// The optimizer chooses among worst-case-optimal (multiway-intersection)
// plans, binary-join plans and hybrids, using the intersection-cost model
// of the paper; execution supports parallel workers, an intersection
// cache, and adaptive per-tuple re-selection of query vertex orderings.
//
// Queries follow a compile-once/run-many lifecycle. Prepare parses,
// canonicalizes, optimizes and compiles a pattern into a PreparedQuery
// that any number of goroutines may execute concurrently. The one-shot
// entry points (Count, Match, Analyze, ...) go through the same machinery
// backed by a concurrent plan cache keyed by the pattern's canonical
// code, so repeated ad-hoc queries skip re-optimization automatically.
//
// The graph is mutable at runtime: AddVertex/AddEdge/DeleteEdge/Apply
// publish new epochs with snapshot isolation (queries already running
// never observe a later batch), and a background compactor periodically
// folds the delta overlay into a fresh CSR base. Planning state is
// decoupled from the epoch: a cached plan is compiled once and every run
// of it reads the snapshot current when the run starts, while the
// catalogue is a sampled statistic republished as a new statistics
// generation — in the background, or on demand through
// RefreshStatistics — only once the graph has drifted far enough from
// the one it was sampled on.
package graphflow

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"graphflow/internal/adaptive"
	"graphflow/internal/baseline"
	"graphflow/internal/cache"
	"graphflow/internal/catalogue"
	"graphflow/internal/datagen"
	"graphflow/internal/exec"
	"graphflow/internal/graph"
	"graphflow/internal/live"
	"graphflow/internal/metrics"
	"graphflow/internal/optimizer"
	"graphflow/internal/plan"
	"graphflow/internal/query"
	"graphflow/internal/resource"
	"graphflow/internal/wal"
)

// Options configures DB construction.
type Options struct {
	// CatalogueH is the largest subquery size sampled into the catalogue
	// (paper Section 5.1); default 3.
	CatalogueH int
	// CatalogueZ is the number of edges sampled per catalogue entry chain;
	// default 1000.
	CatalogueZ int
	// Seed drives catalogue sampling; default 1.
	Seed int64
	// CompactThreshold is the number of live mutations accumulated in the
	// delta overlay before the background compactor folds them into a
	// fresh CSR base. 0 takes the live store's default (16384); a negative
	// value disables automatic compaction (DB.Compact still works).
	CompactThreshold int
	// DataDir enables durability: every mutation batch is appended to a
	// CRC32-checksummed write-ahead log in this directory before its
	// epoch is published, compaction writes an atomic full-graph
	// checkpoint and prunes the log, and opening a DB over a non-empty
	// directory recovers the durable state (newest checkpoint + WAL tail,
	// tolerating a torn final record). The caller must supply the same
	// base graph across restarts — until the first checkpoint lands, the
	// boot-time base is the recovery root. Empty keeps the store
	// in-memory only (mutations lost on exit).
	DataDir string
	// Fsync selects the WAL durability policy when DataDir is set:
	// "batch" (default — fsync before every acknowledged batch),
	// "interval" (background fsync every FsyncInterval), or "off" (the
	// OS page cache decides).
	Fsync string
	// FsyncInterval is the period of the "interval" policy; 0 takes the
	// WAL default (100ms).
	FsyncInterval time.Duration
	// MemBudgetBytes is the default per-query memory ceiling: every
	// evaluation meters its major allocators (hash-join build tables,
	// worker batch scratch, extension-set caches) and aborts with an
	// error wrapping resource.ErrBudgetExceeded once it reserves more.
	// 0 disables the per-query ceiling (queries still draw on the
	// global pool when MemGlobalBytes is set). QueryOptions.
	// MemBudgetBytes can tighten — never widen — this per query.
	MemBudgetBytes int64
	// MemGlobalBytes is the process-wide ceiling apportioned across all
	// in-flight queries first-come-first-served: a query whose next
	// reservation would cross it aborts even with per-query headroom
	// left, so one DB never OOMs the process under concurrency. 0
	// disables the global pool.
	MemGlobalBytes int64
}

func (o *Options) withDefaults() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.CatalogueH == 0 {
		out.CatalogueH = 3
	}
	if out.CatalogueZ == 0 {
		out.CatalogueZ = 1000
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	return out
}

// DB is a graph database instance: the live versioned store (immutable
// CSR base plus mutable delta overlay), the published statistics
// generation (the catalogue) and the plan cache. A DB is safe for
// concurrent use by multiple goroutines: queries read an immutable epoch
// snapshot, and mutations (AddVertex/AddEdge/DeleteEdge/Apply) publish
// new epochs without disturbing in-flight queries.
type DB struct {
	store *live.DB
	opts  Options
	// plans caches up to planCacheSize optimized plans keyed by canonical
	// code, the statistics generation they were costed under and the WCO
	// restriction (planKey). Entries outlive epochs: a plan is valid on
	// every epoch, so a lookup after a mutation is a hit.
	plans *cache.Cache[*cachedPlan]

	// stats is the published statistics generation. Planners only ever
	// load it; nothing on a query's path builds a catalogue.
	stats atomic.Pointer[statistics]
	// mutations totals the vertices appended and edges added or deleted
	// through this DB; its distance from statistics.mutations is the
	// drift the refresh rule watches. Compaction changes no logical
	// content and never counts.
	mutations atomic.Int64
	// buildMu serialises catalogue builds and their publication, so
	// generations are numbered in the order they were sampled.
	buildMu      sync.Mutex
	buildSeconds *metrics.Histogram
	// planSeconds observes every optimizer.Optimize a plan-cache miss (or
	// a cache-skipping query) pays.
	planSeconds *metrics.Histogram
	// refreshMu guards the single-flight state of the background
	// refresher; refreshWG lets Close wait for it to exit.
	refreshMu  sync.Mutex
	refreshing bool
	closed     bool
	refreshWG  sync.WaitGroup
	// refreshHook, when non-nil, runs on the refresher goroutine before
	// it builds; tests use it to hold a refresh in flight.
	refreshHook func()

	// gov is the process-wide memory governor (nil when MemGlobalBytes
	// is 0 and no per-query ceiling is set): every query's budget draws
	// on it, and Governor reports the pool for metrics.
	gov *resource.Governor
}

// Governor exposes the DB's memory governor (nil when memory
// governance is disabled) for observability surfaces.
func (db *DB) Governor() *resource.Governor { return db.gov }

// QueryOptions tunes one query evaluation.
type QueryOptions struct {
	// Context, when non-nil, bounds the evaluation: execution stops
	// promptly once the context is cancelled or its deadline passes, and
	// the context's error (context.Canceled or context.DeadlineExceeded)
	// is returned. Workers poll the context with an amortized check every
	// few thousand produced tuples, so cancellation latency is bounded
	// even for worst-case-optimal plans stuck in a huge intersection
	// cascade. It is the one way to bound a query: Count, CountStats,
	// Match and Analyze, on DB and PreparedQuery alike, all read it.
	Context context.Context
	// Workers parallelises execution (paper Section 7); default 1.
	Workers int
	// Adaptive re-picks the query vertex ordering of the plan's trailing
	// E/I chain while the query runs, from the adjacency-list sizes of the
	// tuples that reach it (Section 6). It selects which compiled form of
	// the plan runs and nothing else: every other option applies as it
	// does without it, and a plan with nothing to adapt runs unchanged.
	Adaptive bool
	// WCOOnly restricts planning to worst-case-optimal plans. Ignored by
	// PreparedQuery methods: plan choice is fixed at Prepare time (use
	// PrepareWCO for a WCO-restricted prepared query).
	WCOOnly bool
	// Limit stops after this many matches (0 = all). Parallel execution
	// honors the limit: with Workers > 1 the count still stops at Limit,
	// but which matches are produced first is nondeterministic.
	Limit int64
	// Distinct switches from the paper's join (homomorphism) semantics to
	// subgraph-isomorphism semantics: every query vertex must bind a
	// distinct data vertex. Implemented as a post-filter.
	Distinct bool
	// SkipPlanCache bypasses the DB's compiled-plan cache for this call,
	// forcing a fresh parse/optimize/compile. Used to measure planning
	// overhead; leave false otherwise.
	SkipPlanCache bool
	// BatchSize is the row capacity of the columnar tuple batches the
	// executor pushes through its pipelines. 0 picks a plan-adaptive
	// capacity (scaled down for shallow plans and small estimated
	// results; explicit values stay authoritative). A negative value is a
	// test oracle that bypasses the planner and the executor: Count and
	// CountStats count with the CFL-style reference evaluator, which
	// shares no code with the engine, over the current snapshot, honouring
	// Limit and no other option, and report only Stats.Matches; Match,
	// Analyze and a Distinct count return an error. Production queries
	// should leave this at 0.
	BatchSize int
	// MemBudgetBytes tightens this query's memory ceiling below the
	// DB-wide Options.MemBudgetBytes default. The effective ceiling is
	// the smaller of the two non-zero values — a request can never widen
	// the operator's limit. 0 keeps the DB default.
	MemBudgetBytes int64
}

// Stats reports what one evaluation did: the run's exec.Profile, whose
// field comments say what each counter means — ICost, Intermediate,
// CacheHits, CarriedSets, Reroutes, the Kernels, Batches and Stages
// breakdowns, FactorizedPrefixes and FactorizedAvoided, and HashedTuples
// and ProbedTuples, the hash joins' build and probe counts — and the plan
// that ran. Kernels.BitsetProbe and Kernels.BitsetAnd are deprecated and
// always zero. Matches is the evaluation's answer (the capped count under
// a Limit). A reference count (QueryOptions.BatchSize < 0) reports
// Matches alone.
type Stats struct {
	exec.Profile
	PlanKind string // "wco", "bj" or "hybrid"
	Plan     string // operator tree, one operator per line
}

// PlanCacheStats is a snapshot of the DB's compiled-plan cache counters.
type PlanCacheStats struct {
	// Hits and Misses count cache lookups by Count/Match/Prepare/etc.
	Hits, Misses int64
	// Evictions counts plans dropped to respect the size bound.
	Evictions int64
	// Entries is the number of currently cached plans.
	Entries int
}

// planCacheSize bounds the DB's compiled-plan cache, in plans shared by
// every goroutine.
const planCacheSize = 256

// newDB builds the catalogue for a finished graph.
func newDB(g *graph.Graph, opts Options) (*DB, error) {
	db := &DB{
		opts: opts,
		gov:  resource.NewGovernor(opts.MemGlobalBytes),

		buildSeconds: metrics.NewHistogram(catalogueBuildBuckets),
		planSeconds:  metrics.NewHistogram(planBuckets),
	}
	sync, err := wal.ParseSyncPolicy(opts.Fsync)
	if err != nil {
		return nil, err
	}
	db.store, err = live.Open(g, live.Config{
		CompactThreshold: opts.CompactThreshold,
		Dir:              opts.DataDir,
		Sync:             sync,
		SyncInterval:     opts.FsyncInterval,
	})
	if err != nil {
		return nil, err
	}
	db.plans = cache.New[*cachedPlan](planCacheSize)
	// Generation 0 samples the recovered snapshot, not the raw base: after
	// WAL replay the two differ.
	db.RefreshStatistics()
	return db, nil
}

// Close releases the DB's resources: it waits for the background
// statistics refresher and background compaction to exit, then syncs and
// closes the write-ahead log, so a graceful shutdown never relies on the
// fsync policy alone. Mutations fail after Close; in-flight queries
// finish on their snapshots. A nil error is returned for an in-memory DB.
func (db *DB) Close() error {
	db.refreshMu.Lock()
	db.closed = true
	db.refreshMu.Unlock()
	db.refreshWG.Wait()
	return db.store.Close()
}

// statsDriftDivisor sets the refresh rule: statistics are due for a
// rebuild once the graph has seen at least 1/statsDriftDivisor as many
// mutations as the edges they were sampled over (never less than one).
// The catalogue is a z-edge sample, so a smaller change cannot move a
// plan choice; a constant rather than an option because no caller has a
// reason to pick another value.
const statsDriftDivisor = 10

// catalogueBuildBuckets spans catalogue builds: milliseconds on small
// unlabelled graphs up to the sampler's work budget on labelled ones.
var catalogueBuildBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// planBuckets spans one optimizer.Optimize: tens of microseconds for the
// 4–6 vertex patterns the exact DP plans, up to seconds for the largest
// queries under the beam search.
var planBuckets = []float64{0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.05, 0.25, 1}

// statistics is one published statistics generation: a catalogue and
// what the graph looked like when it was sampled. Immutable once
// published.
type statistics struct {
	cat *catalogue.Catalogue
	gen uint64
	// edges is the live edge count the catalogue was sampled over and
	// mutations the DB's mutation total at that moment.
	edges     int
	mutations int64
	took      time.Duration
}

// drift is how many mutations the graph has seen since st was sampled.
func (db *DB) drift(st *statistics) int64 { return db.mutations.Load() - st.mutations }

// planningStats returns the published statistics generation for a planner
// and, when the graph has drifted past the refresh rule, starts a
// background rebuild. The caller carries on with the stale catalogue
// (stale-while-revalidate): it steers plan choice only, never results.
// The trigger sits here rather than in Apply so that a write-only
// workload, which never plans, never builds a catalogue.
func (db *DB) planningStats() *statistics {
	st := db.stats.Load()
	due := int64(st.edges / statsDriftDivisor)
	if due < 1 {
		due = 1
	}
	if db.drift(st) >= due {
		db.startRefresh()
	}
	return st
}

// startRefresh launches the background refresher unless one is already
// in flight or the DB is closing.
func (db *DB) startRefresh() {
	db.refreshMu.Lock()
	if db.refreshing || db.closed {
		db.refreshMu.Unlock()
		return
	}
	db.refreshing = true
	db.refreshWG.Add(1)
	db.refreshMu.Unlock()
	go func() {
		defer db.refreshWG.Done()
		if db.refreshHook != nil {
			db.refreshHook()
		}
		db.RefreshStatistics()
		db.refreshMu.Lock()
		db.refreshing = false
		db.refreshMu.Unlock()
	}()
}

// RefreshStatistics synchronously rebuilds the catalogue from the current
// snapshot and publishes it as the next statistics generation — the
// ANALYZE of this engine. Subsequent queries re-plan once per pattern
// against the fresh statistics. The DB refreshes itself in the background
// once the graph has drifted by a tenth of its edges; call this after a
// bulk load, or wherever plan choice must reflect the graph as of now.
func (db *DB) RefreshStatistics() {
	db.buildMu.Lock()
	defer db.buildMu.Unlock()
	// Read the mutation total before the snapshot: a batch landing in
	// between is then both sampled and counted as drift, which errs
	// towards refreshing early rather than late.
	mutations := db.mutations.Load()
	snap := db.store.Snapshot()
	t0 := time.Now()
	cat := catalogue.Build(snap, catalogue.Config{H: db.opts.CatalogueH, Z: db.opts.CatalogueZ, Seed: db.opts.Seed})
	next := &statistics{cat: cat, edges: snap.NumEdges(), mutations: mutations, took: time.Since(t0)}
	prev := db.stats.Load()
	if prev != nil {
		next.gen = prev.gen + 1
	}
	db.buildSeconds.ObserveDuration(next.took)
	db.stats.Store(next)
	if prev != nil {
		// Keys carry the generation, so the older generation's plans can
		// never be looked up again.
		db.plans.Clear()
	}
}

// CatalogueStats is a snapshot of the planner statistics' state.
type CatalogueStats struct {
	// Generation numbers the published catalogue: 0 is the one built when
	// the DB opened, and every refresh publishes the next.
	Generation uint64
	// Builds counts catalogue builds by this DB, the one at open included.
	Builds int64
	// EdgesAtBuild is the edge count the published catalogue was sampled
	// over; DriftEdges the vertices appended and edges added or deleted
	// since. A planner that finds DriftEdges at a tenth of EdgesAtBuild
	// starts a background refresh.
	EdgesAtBuild int
	DriftEdges   int64
	// LastBuild is how long the published catalogue took to build.
	LastBuild time.Duration
	// Entries is the published catalogue's extension entries and Bytes
	// what they hold in memory.
	Entries int
	Bytes   int64
}

// CatalogueStats reports the state of the planner statistics.
func (db *DB) CatalogueStats() CatalogueStats {
	st := db.stats.Load()
	return CatalogueStats{
		Generation:   st.gen,
		Builds:       int64(st.gen) + 1, // every build publishes a generation
		EdgesAtBuild: st.edges,
		DriftEdges:   db.drift(st),
		LastBuild:    st.took,
		Entries:      st.cat.Len(),
		Bytes:        st.cat.Bytes(),
	}
}

// NewFromEdgeList builds a DB from the textual edge-list format of
// internal/graph (a superset of SNAP's: optional "v id label" lines and an
// optional third edge-label column).
func NewFromEdgeList(r io.Reader, opts *Options) (*DB, error) {
	g, err := graph.LoadEdgeList(r)
	if err != nil {
		return nil, err
	}
	return newDB(g, opts.withDefaults())
}

// NewFromDataset builds a DB over one of the built-in synthetic datasets
// mirroring the paper's Table 8: "Amazon", "Epinions", "LiveJournal",
// "Twitter", "BerkStan", "Google" or "Human". scale multiplies the default
// size.
func NewFromDataset(name string, scale int, opts *Options) (*DB, error) {
	g := datagen.ByName(name, scale)
	if g == nil {
		return nil, fmt.Errorf("graphflow: unknown dataset %q (have %v)", name, datagen.Names())
	}
	return newDB(g, opts.withDefaults())
}

// Builder accumulates a graph edge by edge before opening a DB.
type Builder struct {
	b *graph.Builder
}

// NewBuilder starts a graph with numVertices vertices (labelled 0).
func NewBuilder(numVertices int) *Builder {
	return &Builder{b: graph.NewBuilder(numVertices)}
}

// AddVertex appends a labelled vertex and returns its ID.
func (b *Builder) AddVertex(label uint16) uint32 {
	return uint32(b.b.AddVertex(graph.Label(label)))
}

// SetVertexLabel labels an existing vertex.
func (b *Builder) SetVertexLabel(v uint32, label uint16) {
	b.b.SetVertexLabel(graph.VertexID(v), graph.Label(label))
}

// AddEdge records a directed labelled edge.
func (b *Builder) AddEdge(src, dst uint32, label uint16) {
	b.b.AddEdge(graph.VertexID(src), graph.VertexID(dst), graph.Label(label))
}

// Open freezes the graph and builds the DB.
func (b *Builder) Open(opts *Options) (*DB, error) {
	g, err := b.b.Build()
	if err != nil {
		return nil, err
	}
	return newDB(g, opts.withDefaults())
}

// NumVertices returns the live epoch's vertex count (post-mutation).
func (db *DB) NumVertices() int { return db.store.Snapshot().NumVertices() }

// NumEdges returns the live epoch's edge count (post-mutation).
func (db *DB) NumEdges() int { return db.store.Snapshot().NumEdges() }

// cachedPlan is the plan-cache entry for one (canonical query form, WCO
// restriction, statistics generation): the optimized plan and its
// compiled forms. Neither references a snapshot — every run names the one
// it reads (exec.CompiledPlan.On) — so one entry serves every epoch. The
// plan is built over the canonical query, so one entry serves every
// isomorphic spelling of a pattern; per-spelling state (the original
// vertex names) lives in PreparedQuery instead.
type cachedPlan struct {
	plan     *plan.Plan
	gen      uint64
	compiled *exec.CompiledPlan
	// adaptive is compiled with a router over the candidate orderings of
	// the plan's trailing E/I chain (compiled itself when there are none to
	// adapt), made by the first Adaptive query.
	adaptiveOnce sync.Once
	adaptive     *exec.CompiledPlan
}

// compiledFor returns the compiled form of cp that a query with options qo
// runs, reading the current snapshot.
func (db *DB) compiledFor(cp *cachedPlan, qo *QueryOptions) *exec.CompiledPlan {
	compiled := cp.compiled
	if qo.Adaptive {
		cp.adaptiveOnce.Do(func() {
			routes := optimizer.Routes(cp.plan, db.planningStats().cat, adaptive.MaxOrderings)
			cp.adaptive = cp.compiled.Adaptive(routes)
		})
		compiled = cp.adaptive
	}
	return compiled.On(db.store.Snapshot())
}

// planFor returns the plan for the canonical query canon, whose code is
// code — from the cache when possible — and how long the optimizer took
// when the plan had to be made (0 on a cache hit).
func (db *DB) planFor(canon *query.Graph, code query.Code, wcoOnly, skipCache bool) (*cachedPlan, time.Duration, error) {
	st := db.planningStats()
	var key string
	if !skipCache {
		key = planKey(code, st.gen, wcoOnly)
		if cp, ok := db.plans.Get(key); ok {
			return cp, 0, nil
		}
	}
	planStart := time.Now()
	// Zero options but the statistics and the plan space, as internal/bench
	// plans: a factorized tail is priced the way the factorized tier runs it.
	p, err := optimizer.Optimize(canon, optimizer.Options{Catalogue: st.cat, WCOOnly: wcoOnly})
	if err != nil {
		return nil, 0, err
	}
	planTook := time.Since(planStart)
	db.planSeconds.ObserveDuration(planTook)
	compiled, err := exec.Compile(nil, p)
	if err != nil {
		return nil, 0, err
	}
	cp := &cachedPlan{plan: p, gen: st.gen, compiled: compiled}
	if key != "" {
		db.plans.Put(key, cp)
	}
	return cp, planTook, nil
}

// planKey is the plan-cache key of a canonical code: the code, then the
// statistics generation as 8 big-endian bytes, then 1 for WCO-restricted
// planning (which yields different plans) or 0. Both fields are fixed
// width and end the key, so distinct triples never share one.
func planKey(code query.Code, gen uint64, wcoOnly bool) string {
	var suffix [9]byte
	binary.BigEndian.PutUint64(suffix[:8], gen)
	if wcoOnly {
		suffix[8] = 1
	}
	return string(code) + string(suffix[:])
}

// PlanCacheStats reports the DB's compiled-plan cache effectiveness.
func (db *DB) PlanCacheStats() PlanCacheStats {
	st := db.plans.Stats()
	return PlanCacheStats{Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions, Entries: st.Entries}
}

// PreparedQuery is a pattern compiled once — parsed, canonicalized,
// optimized and lowered — and runnable many times. All methods are safe
// for concurrent use from multiple goroutines: the compiled plan is
// immutable and every run carries its own mutable state.
//
// A PreparedQuery tracks the DB's epoch: each run reads the snapshot
// current when it starts, with the same compiled plan whatever the epoch;
// it re-plans (through the plan cache) only when a new statistics
// generation has been published. A run in flight keeps the snapshot it
// started on, so it never observes a mutation applied after it began.
type PreparedQuery struct {
	db *DB
	// canon is the pattern's canonical form, the unit of planning; code is
	// its canonical code, the plan cache's identity for it.
	canon   *query.Graph
	code    query.Code
	wcoOnly bool
	// skipCache preserves QueryOptions.SkipPlanCache across re-resolves
	// for ad-hoc queries measuring planning overhead.
	skipCache bool
	// names maps canonical vertex index to the pattern's original vertex
	// name, for Match output. The canonical form depends only on the
	// pattern, so names stay valid across re-plans.
	names []string
	// planTook is what the optimizer took to plan this query when it was
	// prepared; 0 when the plan cache already held its plan.
	planTook time.Duration
	// cur is the most recently resolved plan; it is replaced on first use
	// after a new statistics generation.
	cur atomic.Pointer[cachedPlan]
}

// resolve returns the plan for the current statistics generation,
// re-planning if the held one is stale.
func (pq *PreparedQuery) resolve() (*cachedPlan, error) {
	cp := pq.cur.Load()
	if cp.gen == pq.db.stats.Load().gen {
		return cp, nil
	}
	cp, _, err := pq.db.planFor(pq.canon, pq.code, pq.wcoOnly, pq.skipCache)
	if err != nil {
		return nil, err
	}
	pq.cur.Store(cp)
	return cp, nil
}

// Prepare compiles the pattern for repeated execution. Planning uses the
// full WCO/binary/hybrid plan space; per-run knobs (Workers, Limit,
// Distinct, Adaptive) are supplied to each Count/Match
// call. The compiled plan is shared with the DB's plan cache, so ad-hoc
// Count calls with an isomorphic pattern reuse it too.
func (db *DB) Prepare(pattern string) (*PreparedQuery, error) {
	return db.prepare(pattern, false, false)
}

// PrepareWCO is Prepare with planning restricted to worst-case-optimal
// plans (QueryOptions.WCOOnly fixed at compile time).
func (db *DB) PrepareWCO(pattern string) (*PreparedQuery, error) {
	return db.prepare(pattern, true, false)
}

// prepare is the single parse → canonicalize → plan → compile path every
// query entry point goes through.
func (db *DB) prepare(pattern string, wcoOnly, skipCache bool) (*PreparedQuery, error) {
	q, err := query.ParseAny(pattern)
	if err != nil {
		return nil, err
	}
	code, perm := q.CanonicalCodeWithPerm()
	canon := q.Renumber(perm)
	cp, planTook, err := db.planFor(canon, code, wcoOnly, skipCache)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(q.Vertices))
	for orig, canon := range perm {
		names[canon] = q.Vertices[orig].Name
	}
	pq := &PreparedQuery{db: db, canon: canon, code: code, wcoOnly: wcoOnly, skipCache: skipCache, names: names, planTook: planTook}
	pq.cur.Store(cp)
	return pq, nil
}

// Count evaluates the prepared query and returns the number of matches.
// opts may be nil. Safe for concurrent use.
func (pq *PreparedQuery) Count(opts *QueryOptions) (int64, error) {
	n, _, err := pq.CountStats(opts)
	return n, err
}

// CountStats is Count plus the execution statistics and plan description.
// On context cancellation the partial count and statistics observed so
// far are returned alongside the error.
func (pq *PreparedQuery) CountStats(opts *QueryOptions) (int64, Stats, error) {
	var qo QueryOptions
	if opts != nil {
		qo = *opts
	}
	if qo.BatchSize < 0 {
		return pq.db.referenceCount(pq.canon, qo)
	}
	cp, err := pq.resolve()
	if err != nil {
		return 0, Stats{}, err
	}
	n, prof, err := pq.db.runCount(cp, qo)
	return n, statsFrom(cp.plan, prof, n), err
}

// Match evaluates the prepared query, invoking fn with each match as a
// map from vertex name to data vertex ID; fn returning false stops
// enumeration promptly. Distinct and Limit apply as in Count. Workers
// parallelises enumeration — fn is always serialised (never called
// concurrently) and a Limit is still honored exactly, but match order is
// nondeterministic across runs when Workers > 1.
func (pq *PreparedQuery) Match(fn func(map[string]uint32) bool, opts *QueryOptions) error {
	var qo QueryOptions
	if opts != nil {
		qo = *opts
	}
	_, err := pq.match(fn, qo)
	return err
}

// match is Match returning the run's profile.
func (pq *PreparedQuery) match(fn func(map[string]uint32) bool, qo QueryOptions) (exec.Profile, error) {
	if qo.BatchSize < 0 {
		return exec.Profile{}, errReferenceCountsOnly
	}
	cp, err := pq.resolve()
	if err != nil {
		return exec.Profile{}, err
	}
	layout := cp.plan.Root.Out()
	names := make([]string, len(layout))
	for slot, v := range layout {
		names[slot] = pq.names[v]
	}
	ctx, cfg, done := pq.db.runConfig(&qo)
	defer done()
	// RunCtx calls emit from every worker. fn is the user's callback, so
	// it runs under mu — one call at a time — and never again once it has
	// returned false or Limit rows have been delivered. A Distinct Limit
	// counts distinct rows only, so the run is not told of it.
	var (
		mu        sync.Mutex
		stopped   bool
		delivered int64
		limit     = qo.Limit
	)
	if qo.Distinct {
		limit = 0
	}
	return pq.db.compiledFor(cp, &qo).RunCtx(ctx, cfg, limit, func(t []graph.VertexID) bool {
		if qo.Distinct && !allDistinct(t) {
			return true
		}
		m := make(map[string]uint32, len(t))
		for slot, v := range t {
			m[names[slot]] = uint32(v)
		}
		mu.Lock()
		defer mu.Unlock()
		if stopped {
			return false
		}
		delivered++
		stopped = !fn(m) || (qo.Limit > 0 && delivered >= qo.Limit)
		return !stopped
	})
}

// Stats returns the prepared plan's kind and operator tree without
// running it (the Explain view). It reflects the most recently resolved
// statistics generation; a pending re-plan is not forced.
func (pq *PreparedQuery) Stats() Stats {
	cp := pq.cur.Load()
	return Stats{PlanKind: cp.plan.Kind(), Plan: cp.plan.Describe()}
}

// PlanDigest returns a short stable identifier of the prepared plan:
// a 64-bit FNV-1a hash over the canonical code and the plan's operator
// tree, hex-encoded. Two queries share a digest exactly when they
// canonicalize to the same pattern and received the same plan, so
// slow-query log lines can be grouped by plan across processes.
func (pq *PreparedQuery) PlanDigest() string { return planDigest(pq.code, pq.cur.Load().plan) }

// planDigest is PlanDigest of plan p for the canonical code code.
func planDigest(code query.Code, p *plan.Plan) string {
	h := fnv.New64a()
	io.WriteString(h, string(code))
	io.WriteString(h, "|")
	io.WriteString(h, p.Describe())
	return strconv.FormatUint(h.Sum64(), 16)
}

// PlanTime returns how long the optimizer took to plan the query when it
// was prepared, or 0 when the plan cache served it: the share of an
// ad-hoc query's latency that a cache hit would not have paid.
func (pq *PreparedQuery) PlanTime() time.Duration { return pq.planTook }

// PlanKind returns the prepared plan's kind ("wco", "bj" or "hybrid")
// without rendering the operator tree — cheap enough for per-request
// serving paths. Like Stats, it reflects the most recently resolved
// statistics generation.
func (pq *PreparedQuery) PlanKind() string { return pq.cur.Load().plan.Kind() }

// runConfig returns what one run of a query runs under; every run,
// Analyze included, takes it from here. The context is qo.Context, or
// Background. The RunConfig is the per-query knobs, then the hook the
// context carries (exec.WithRunConfig, the only way to reach the
// engine's ablation and fault knobs), then the memory budget: the
// tighter of the DB-wide default and the query's own ceiling, drawing on
// the process governor, or nil — no metering — when neither a ceiling
// nor a global pool is configured. done returns the budget's reservation
// to the governor and must be called once the run is over.
func (db *DB) runConfig(qo *QueryOptions) (context.Context, exec.RunConfig, func()) {
	ctx := qo.Context
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := exec.RunConfig{Workers: qo.Workers, BatchSize: qo.BatchSize}
	exec.ApplyRunConfig(ctx, &cfg)
	limit := db.opts.MemBudgetBytes
	if qo.MemBudgetBytes > 0 && (limit <= 0 || qo.MemBudgetBytes < limit) {
		limit = qo.MemBudgetBytes
	}
	var mem *resource.Budget
	if limit > 0 || db.gov.Limit() > 0 {
		mem = resource.NewBudget(limit, db.gov)
	}
	cfg.MemBudget = mem
	return ctx, cfg, mem.Close
}

// errReferenceCountsOnly is what Match, Analyze and a Distinct count
// return under QueryOptions.BatchSize < 0: the reference evaluator that
// setting selects only counts.
var errReferenceCountsOnly = errors.New("graphflow: BatchSize < 0 selects the reference counter, which supports Count and CountStats without Distinct only")

// referenceCount counts q's matches on the current snapshot with the
// CFL-style baseline evaluator, up to qo.Limit (QueryOptions.BatchSize
// < 0): no planner, no compiled plan, no executor.
func (db *DB) referenceCount(q *query.Graph, qo QueryOptions) (int64, Stats, error) {
	if qo.Distinct {
		return 0, Stats{}, errReferenceCountsOnly
	}
	if qo.Context != nil && qo.Context.Err() != nil {
		return 0, Stats{}, qo.Context.Err()
	}
	n := baseline.CFLCountUpTo(db.store.Snapshot(), q, qo.Limit)
	return n, Stats{Profile: exec.Profile{Matches: n}}, nil
}

// runCount executes a cached plan on the current snapshot under the
// given options.
func (db *DB) runCount(cp *cachedPlan, qo QueryOptions) (int64, exec.Profile, error) {
	compiled := db.compiledFor(cp, &qo)
	ctx, cfg, done := db.runConfig(&qo)
	defer done()
	if qo.Distinct {
		// RunCtx calls emit from every worker, so the count is an atomic.
		// Workers may race past Limit by a row each before observing the
		// stop; the overshoot is clamped below, as in CountUpToCtx. The
		// Limit counts distinct rows only, so RunCtx is not told of it.
		var count atomic.Int64
		prof, err := compiled.RunCtx(ctx, cfg, 0, func(t []graph.VertexID) bool {
			if !allDistinct(t) {
				return true
			}
			return count.Add(1) < qo.Limit || qo.Limit <= 0
		})
		n := count.Load()
		if qo.Limit > 0 {
			n = min(n, qo.Limit)
		}
		return n, prof, err
	}
	return compiled.CountUpToCtx(ctx, cfg, qo.Limit)
}

// Count evaluates the pattern and returns the number of matches. opts may
// be nil. Repeated calls with isomorphic patterns hit the plan cache and
// skip re-optimization.
func (db *DB) Count(pattern string, opts *QueryOptions) (int64, error) {
	n, _, err := db.CountStats(pattern, opts)
	return n, err
}

// CountStats is Count plus the execution statistics and plan description.
// On context cancellation the partial count and statistics observed so
// far are returned alongside the error.
func (db *DB) CountStats(pattern string, opts *QueryOptions) (int64, Stats, error) {
	var qo QueryOptions
	if opts != nil {
		qo = *opts
	}
	if qo.BatchSize < 0 {
		q, err := query.ParseAny(pattern)
		if err != nil {
			return 0, Stats{}, err
		}
		return db.referenceCount(q, qo)
	}
	pq, err := db.prepare(pattern, qo.WCOOnly, qo.SkipPlanCache)
	if err != nil {
		return 0, Stats{}, err
	}
	cp := pq.cur.Load()
	n, prof, err := db.runCount(cp, qo)
	return n, statsFrom(cp.plan, prof, n), err
}

// allDistinct reports whether the tuple binds pairwise-distinct data
// vertices (tuples are short: quadratic scan beats allocation).
func allDistinct(t []graph.VertexID) bool {
	for i := 1; i < len(t); i++ {
		for j := 0; j < i; j++ {
			if t[i] == t[j] {
				return false
			}
		}
	}
	return true
}

// Match evaluates the pattern, invoking fn with each match as a map from
// vertex name to data vertex ID; fn returning false stops enumeration
// promptly (the runner halts rather than draining the full result set).
// Distinct, Limit and Workers apply as in PreparedQuery.Match.
func (db *DB) Match(pattern string, fn func(map[string]uint32) bool, opts *QueryOptions) error {
	var qo QueryOptions
	if opts != nil {
		qo = *opts
	}
	pq, err := db.prepare(pattern, qo.WCOOnly, qo.SkipPlanCache)
	if err != nil {
		return err
	}
	return pq.Match(fn, opts)
}

// Explain returns the optimizer's plan for the pattern without running it.
func (db *DB) Explain(pattern string) (Stats, error) {
	pq, err := db.prepare(pattern, false, false)
	if err != nil {
		return Stats{}, err
	}
	return pq.Stats(), nil
}

// Analyze runs the pattern and returns Stats whose Plan field carries the
// per-operator breakdown — EXPLAIN ANALYZE for subgraph plans; see
// PreparedQuery.Analyze. It is Prepare (honouring opts.WCOOnly) plus that
// call.
func (db *DB) Analyze(pattern string, opts *QueryOptions) (Stats, error) {
	var qo QueryOptions
	if opts != nil {
		qo = *opts
	}
	pq, err := db.prepare(pattern, qo.WCOOnly, false)
	if err != nil {
		return Stats{}, err
	}
	return pq.Analyze(opts)
}

// Analyze runs the prepared query and returns Stats whose Plan field
// carries the per-operator breakdown (tuples out, i-cost, cache hits,
// carried sets, pinned probes, probe and build counts, attributed wall
// time, and the factorized tail's components with their separators and
// key counts) — EXPLAIN ANALYZE for subgraph plans. Of opts (which may be
// nil) it honours Context and BatchSize — what decides the counters on
// the tree it annotates — and the memory ceiling, MemBudgetBytes under
// the DB's Options.MemBudgetBytes and MemGlobalBytes, which it aborts on
// as Count does; the run itself is always single-threaded, counts as
// Count does and runs the fixed plan, so Workers, Limit, Distinct and
// Adaptive do not apply. A negative BatchSize, which has no plan to
// annotate, is an error.
func (pq *PreparedQuery) Analyze(opts *QueryOptions) (Stats, error) {
	var qo QueryOptions
	if opts != nil {
		qo = *opts
	}
	if qo.BatchSize < 0 {
		return Stats{}, errReferenceCountsOnly
	}
	cp, err := pq.resolve()
	if err != nil {
		return Stats{}, err
	}
	ctx, cfg, done := pq.db.runConfig(&qo)
	defer done()
	ops, prof, err := cp.compiled.On(pq.db.store.Snapshot()).AnalyzeCtx(ctx, cfg)
	if err != nil {
		return Stats{}, err
	}
	st := statsFrom(cp.plan, prof, prof.Matches)
	st.Plan = ops.Describe()
	return st, nil
}

// EstimateCardinality returns the catalogue's estimate of the pattern's
// match count (Section 5.2).
func (db *DB) EstimateCardinality(pattern string) (float64, error) {
	q, err := query.ParseAny(pattern)
	if err != nil {
		return 0, err
	}
	return db.planningStats().cat.EstimateCardinality(q), nil
}

// GraphStats summarises the stored graph (degree skew and clustering — the
// structural knobs that drive plan choice in the paper). It reflects the
// live epoch, mutations included.
func (db *DB) GraphStats() graph.Stats {
	return graph.ComputeStatsOf(db.store.Snapshot(), 2000, rand.New(rand.NewSource(7)))
}

// EdgeOp names one directed labelled edge in a mutation Batch.
type EdgeOp struct {
	Src, Dst uint32
	Label    uint16
}

// Batch is one atomic group of live mutations. Vertices are appended
// first, so AddEdges/DeleteEdges may reference vertices created by the
// same batch.
type Batch struct {
	// AddVertices appends one vertex per label; IDs are assigned
	// sequentially from the current vertex count.
	AddVertices []uint16
	AddEdges    []EdgeOp
	DeleteEdges []EdgeOp
}

// ApplyResult reports what one mutation batch did.
type ApplyResult struct {
	// Epoch is the graph version the batch produced; queries started
	// afterwards observe it, queries already running do not.
	Epoch uint64
	// FirstNewVertex is the ID of the first appended vertex (meaningful
	// only when AddedVertices > 0; subsequent IDs are consecutive).
	FirstNewVertex uint32
	AddedVertices  int
	// AddedEdges counts edges actually inserted: duplicates and
	// self-loops are dropped, matching Builder semantics.
	AddedEdges int
	// DeletedEdges counts edges actually removed; deleting an absent edge
	// is a no-op.
	DeletedEdges int
	// Vertices and Edges are the post-batch live counts, read atomically
	// with Epoch so the triple is self-consistent under concurrent
	// writers.
	Vertices, Edges int
}

// Apply runs one mutation batch atomically against the live store:
// either the whole batch becomes a single new epoch, or (on validation
// error) nothing changes. In-flight queries keep the snapshot they
// started on; subsequent queries run their cached plans on the new epoch.
// The background compactor folds the delta overlay into
// a fresh CSR base once it outgrows Options.CompactThreshold.
func (db *DB) Apply(b Batch) (ApplyResult, error) {
	lb := live.Batch{
		AddEdges:    make([]live.EdgeOp, len(b.AddEdges)),
		DeleteEdges: make([]live.EdgeOp, len(b.DeleteEdges)),
	}
	for _, l := range b.AddVertices {
		lb.AddVertices = append(lb.AddVertices, graph.Label(l))
	}
	for i, e := range b.AddEdges {
		lb.AddEdges[i] = live.EdgeOp{Src: graph.VertexID(e.Src), Dst: graph.VertexID(e.Dst), Label: graph.Label(e.Label)}
	}
	for i, e := range b.DeleteEdges {
		lb.DeleteEdges[i] = live.EdgeOp{Src: graph.VertexID(e.Src), Dst: graph.VertexID(e.Dst), Label: graph.Label(e.Label)}
	}
	res, err := db.apply(lb)
	if err != nil {
		return ApplyResult{}, err
	}
	return ApplyResult{
		Epoch:          res.Epoch,
		FirstNewVertex: uint32(res.FirstNewVertex),
		AddedVertices:  res.AddedVertices,
		AddedEdges:     res.AddedEdges,
		DeletedEdges:   res.DeletedEdges,
		Vertices:       res.Vertices,
		Edges:          res.Edges,
	}, nil
}

// apply publishes one batch through the live store and counts what it
// actually changed towards statistics drift — the only work a mutation
// does for the planner.
func (db *DB) apply(b live.Batch) (live.ApplyResult, error) {
	res, err := db.store.Apply(b)
	if err == nil {
		db.mutations.Add(int64(res.AddedVertices + res.AddedEdges + res.DeletedEdges))
	}
	return res, err
}

// AddVertex appends a labelled vertex to the live graph and returns its ID.
func (db *DB) AddVertex(label uint16) (uint32, error) {
	res, err := db.apply(live.Batch{AddVertices: []graph.Label{graph.Label(label)}})
	return uint32(res.FirstNewVertex), err
}

// AddEdge inserts a directed labelled edge into the live graph. It
// reports whether the edge was new (false: duplicate or self-loop, both
// dropped to preserve Builder semantics).
//
// Each call publishes its own epoch and, on a durable store, writes (and
// by default fsyncs) its own log record; for bulk mutation streams prefer
// Apply, which pays both once per batch.
func (db *DB) AddEdge(src, dst uint32, label uint16) (bool, error) {
	res, err := db.apply(live.Batch{AddEdges: []live.EdgeOp{{Src: graph.VertexID(src), Dst: graph.VertexID(dst), Label: graph.Label(label)}}})
	return res.AddedEdges > 0, err
}

// DeleteEdge removes the directed edge src->dst with the given (exact)
// label from the live graph, reporting whether it existed.
func (db *DB) DeleteEdge(src, dst uint32, label uint16) (bool, error) {
	res, err := db.apply(live.Batch{DeleteEdges: []live.EdgeOp{{Src: graph.VertexID(src), Dst: graph.VertexID(dst), Label: graph.Label(label)}}})
	return res.DeletedEdges > 0, err
}

// Epoch returns the live graph's current version; it advances by one per
// applied mutation batch and per compaction.
func (db *DB) Epoch() uint64 { return db.store.Epoch() }

// Compact synchronously folds the delta overlay into a fresh CSR base
// and bumps the epoch (a no-op on an empty overlay). Automatic
// background compaction triggers on Options.CompactThreshold; this entry
// point forces a pass, e.g. before a read-heavy phase.
func (db *DB) Compact() error { return db.store.Compact() }

// WaitCompaction blocks until any in-flight background compaction pass
// finishes. Useful in tests and before shutdown.
func (db *DB) WaitCompaction() { db.store.WaitCompaction() }

// LiveStats is a snapshot of the versioned store's state.
type LiveStats struct {
	// Epoch is the current graph version.
	Epoch uint64
	// Vertices and Edges are the live (post-mutation) counts.
	Vertices, Edges int
	// BaseEdges is the edge count of the immutable CSR under the overlay.
	BaseEdges int
	// DeltaOps is the number of overlay mutations not yet folded into the
	// base — the metric the compaction trigger watches. A compaction that
	// ran beside writers leaves what they wrote during its fold.
	DeltaOps int
	// Compactions counts completed compaction passes.
	Compactions int64
	// BitsetIndexBytes is always zero.
	//
	// Deprecated: the hub bitset index is gone; the field stays only until
	// the benchmark stops reading it.
	BitsetIndexBytes int64
	// WALEnabled reports whether the store is durable (Options.DataDir
	// set); the remaining WAL fields are zero when it is false.
	WALEnabled bool
	// WALBytes is the current write-ahead log size across segments;
	// WALBatches counts mutation batches logged by this process.
	WALBytes   int64
	WALBatches int64
	// ReplayedBatches is the number of mutation batches replayed from the
	// WAL at open (the empty records compactions log are not counted), and
	// WALTornTail whether a torn final record was discarded then.
	ReplayedBatches int
	WALTornTail     bool
	// CheckpointEpoch is the newest durable checkpoint's epoch (0 until
	// the first compaction-triggered checkpoint lands); Checkpoints counts
	// checkpoints written by this process.
	CheckpointEpoch uint64
	Checkpoints     int64
}

// LiveStats reports the versioned store's current state.
func (db *DB) LiveStats() LiveStats {
	s := db.store.Snapshot()
	ws := db.store.WALStats()
	return LiveStats{
		Epoch:           s.Epoch(),
		Vertices:        s.NumVertices(),
		Edges:           s.NumEdges(),
		BaseEdges:       s.Base().NumEdges(),
		DeltaOps:        s.DeltaOps(),
		Compactions:     db.store.Compactions(),
		WALEnabled:      ws.Enabled,
		WALBytes:        ws.Bytes,
		WALBatches:      ws.Appended,
		ReplayedBatches: ws.Replayed,
		WALTornTail:     ws.TornTailDropped,
		CheckpointEpoch: ws.CheckpointEpoch,
		Checkpoints:     ws.Checkpoints,
	}
}

// RegisterMetrics exposes the DB's internals — live-store gauges, plan
// cache counters, statistics generation and drift, WAL state including
// fsync latency, and compaction durations — in a metrics registry under
// the graphflow_* namespace.
// Call at most once per (DB, registry) pair; the gauges read live state
// at scrape time, so registration costs nothing between scrapes.
func (db *DB) RegisterMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("graphflow_graph_vertices", "Live vertex count at the current epoch.",
		func() float64 { return float64(db.store.Snapshot().NumVertices()) })
	reg.GaugeFunc("graphflow_graph_edges", "Live edge count at the current epoch.",
		func() float64 { return float64(db.store.Snapshot().NumEdges()) })
	reg.GaugeFunc("graphflow_graph_epoch", "Current graph version.",
		func() float64 { return float64(db.store.Epoch()) })
	reg.GaugeFunc("graphflow_overlay_delta_ops", "Overlay mutations since the last compaction (the compaction trigger's metric).",
		func() float64 { return float64(db.store.Snapshot().DeltaOps()) })
	reg.CounterFunc("graphflow_compactions_total", "Completed compaction passes.",
		func() float64 { return float64(db.store.Compactions()) })
	reg.RegisterHistogram("graphflow_compaction_seconds", "Compaction pass duration (freeze through rebase, checkpoint included).",
		db.store.CompactionHistogram())

	reg.CounterFunc("graphflow_plan_cache_hits_total", "Plan cache hits.",
		func() float64 { return float64(db.PlanCacheStats().Hits) })
	reg.CounterFunc("graphflow_plan_cache_misses_total", "Plan cache misses.",
		func() float64 { return float64(db.PlanCacheStats().Misses) })
	reg.CounterFunc("graphflow_plan_cache_evictions_total", "Plans evicted to respect the cache size bound.",
		func() float64 { return float64(db.PlanCacheStats().Evictions) })
	reg.RegisterHistogram("graphflow_plan_seconds", "Optimizer time per planned query (plan-cache misses and cache-skipping queries).",
		db.planSeconds)

	reg.GaugeFunc("graphflow_catalogue_generation", "Published statistics generation (0 = the catalogue built at open).",
		func() float64 { return float64(db.CatalogueStats().Generation) })
	reg.CounterFunc("graphflow_catalogue_builds_total", "Catalogue builds, the one at open included.",
		func() float64 { return float64(db.CatalogueStats().Builds) })
	reg.GaugeFunc("graphflow_catalogue_drift_edges", "Vertices appended and edges added or deleted since the published catalogue was sampled (a refresh is due at a tenth of the edges it was sampled over).",
		func() float64 { return float64(db.CatalogueStats().DriftEdges) })
	reg.GaugeFunc("graphflow_catalogue_entries", "Extension entries in the published catalogue.",
		func() float64 { return float64(db.CatalogueStats().Entries) })
	reg.GaugeFunc("graphflow_catalogue_bytes", "Bytes the published catalogue's entries hold in memory.",
		func() float64 { return float64(db.CatalogueStats().Bytes) })
	reg.RegisterHistogram("graphflow_catalogue_build_seconds", "Catalogue build duration (open, background refresh and RefreshStatistics).",
		db.buildSeconds)

	reg.GaugeFunc("graphflow_mem_reserved_bytes", "Bytes currently reserved from the memory governor by in-flight queries.",
		func() float64 { return float64(db.gov.InUse()) })
	reg.GaugeFunc("graphflow_mem_limit_bytes", "Process-wide query-memory ceiling (0 = unlimited).",
		func() float64 { return float64(db.gov.Limit()) })
	reg.GaugeFunc("graphflow_plan_cache_entries", "Currently cached plans.",
		func() float64 { return float64(db.PlanCacheStats().Entries) })

	reg.GaugeFunc("graphflow_wal_enabled", "1 when the store is durable (DataDir set), else 0.",
		func() float64 {
			if db.store.WALStats().Enabled {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("graphflow_wal_segment_bytes", "Write-ahead log size across live segments.",
		func() float64 { return float64(db.store.WALStats().Bytes) })
	reg.CounterFunc("graphflow_wal_batches_total", "Mutation batches appended to the WAL by this process.",
		func() float64 { return float64(db.store.WALStats().Appended) })
	reg.GaugeFunc("graphflow_wal_checkpoint_epoch", "Epoch covered by the newest durable checkpoint (0 = boot-time base).",
		func() float64 { return float64(db.store.WALStats().CheckpointEpoch) })
	reg.CounterFunc("graphflow_wal_checkpoints_total", "Checkpoints written by this process.",
		func() float64 { return float64(db.store.WALStats().Checkpoints) })
	reg.GaugeFunc("graphflow_wal_checkpoint_age_seconds", "Seconds since the newest durable checkpoint was written (0 until one exists).",
		func() float64 {
			t, ok := db.store.CheckpointTime()
			if !ok {
				return 0
			}
			return time.Since(t).Seconds()
		})
	if h := db.store.FsyncHistogram(); h != nil {
		reg.RegisterHistogram("graphflow_wal_fsync_seconds", "WAL fsync latency (per-append, interval and rotation syncs).", h)
	}
}

func statsFrom(p *plan.Plan, prof exec.Profile, n int64) Stats {
	prof.Matches = n
	return Stats{Profile: prof, PlanKind: p.Kind(), Plan: p.Describe()}
}
