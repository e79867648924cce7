package exec

import (
	"slices"
	"sync/atomic"
	"time"

	"graphflow/internal/faultinject"
	"graphflow/internal/graph"
)

// worker owns the per-goroutine state of one pipeline run: the stage
// states (column batches, intersection caches, scratch buffers,
// per-operator counters) minted from the compiled stage specs. Workers
// share only the read-only graph, the compiled plan and the run's hash
// tables.
type worker struct {
	g      graph.View
	rc     *runContext
	pipe   *compiledPipeline
	isRoot bool
	// emit receives each output tuple and returns false to request early
	// termination of the whole pipeline. nil for pure counting.
	emit func([]graph.VertexID) bool
	// build is the hash table a build pipeline's worker sinks into (nil on
	// the driver pipeline), frag the fragment of it the worker is filling
	// (checked out with its first rows, replaced when full).
	build   *hashTable
	frag    *tableFragment
	stopped *atomic.Bool
	// tuple is the flat row handed to emit, one sink row at a time.
	tuple   []graph.VertexID
	profile Profile
	// The batch stage chain, the scan's writer of (src, nbr) rows —
	// feeding stage 0, or the sink in a pipeline that is only a scan —
	// the configured batch row capacity and the shared morsel queue hub
	// morsels are pushed to when a scan vertex's adjacency is split.
	bstages   []batchStage
	edges     fanOut
	batchSize int
	// factorized records whether the stage chain ends in a componentTail
	// (every ordering's chain, behind a router) — part of the pooled
	// worker's shape, checked on reuse.
	factorized bool
	// router is the pipeline's adaptive routing stage, if it has one: the
	// sink asks it for the root layout of an ordering's output.
	router *routeStage
	mq     *morselQueue
	// scanReader is the reusable neighbor fill for the scan stage.
	scanReader graph.NeighborReader
	// countFast marks a worker of a count's driver pipeline (see
	// countsLast): the final stage adds the size of what it would fan out
	// — an extension set, a key's build rows — to the match count without
	// enumerating it (the factorization optimization of the paper's
	// Section 10).
	countFast bool
	scanOut   int64
	// cancelCountdown amortizes context polling: it is decremented on
	// every produced tuple and the context is only consulted when it
	// reaches zero, so the hot extend/probe loops pay one integer
	// decrement per tuple.
	cancelCountdown int
	// Per-stage wall-time attribution: stageNanos[0] is the scan slot,
	// stageNanos[1] the sink's (emit or build insert) and stageNanos[2+i]
	// stage i's. deliver charges the interval since lastStamp to curStage
	// around every pushBatch, so each slot accumulates self time — two
	// time.Now calls per batch per stage, no allocation, always on. The
	// slice grows with the stage chain and survives pooling.
	stageNanos []int64
	curStage   int
	lastStamp  time.Time
	// memBytes is the metered size of the worker's batch scratch (scan
	// batch plus every stage's retained output batch), charged to the
	// run's memory budget on checkout — including pooled reuse, since
	// the reusing query is the one holding the memory.
	memBytes int64
	// poisoned marks a worker whose run ended in a recovered foreign
	// panic: its scratch may be inconsistent, so release never pools it.
	poisoned bool
}

// cancelCheckInterval is the number of produced tuples between context
// polls. Small enough that even a single deep pipeline observes
// cancellation within microseconds on modern hardware, large enough that
// the poll never shows up in profiles.
const cancelCheckInterval = 4096

func newWorker(rc *runContext, pipe *compiledPipeline, isRoot bool, emit func([]graph.VertexID) bool, stopped *atomic.Bool, mq *morselQueue) *worker {
	fact := !rc.cfg.NoFactorize && isRoot && pipe.tail.cut < len(pipe.stages)
	batch := rc.batch
	if pipe.feeds != nil {
		batch = rc.buildBatch
	}
	// Reuse pooled worker scratch when its shape matches this run; a
	// mismatched worker (different batch capacity or tail shape) is
	// simply dropped for the garbage collector.
	if pooled, _ := pipe.pool.Get().(*worker); pooled != nil &&
		pooled.batchSize == batch && pooled.factorized == fact {
		pooled.rebind(rc, emit, stopped, mq)
		pooled.chargeCheckout()
		return pooled
	}
	w := &worker{
		g: rc.cp.graph, rc: rc, pipe: pipe, isRoot: isRoot,
		emit: emit, stopped: stopped, mq: mq, build: rc.tables[pipe.feeds],
		countFast:       countsLast(rc, isRoot, emit),
		cancelCountdown: cancelCheckInterval,
		batchSize:       batch,
		factorized:      fact,
		stageNanos:      make([]int64, 2, len(pipe.stages)+3),
		lastStamp:       time.Now(),
	}
	specs, tail, exit := pipe.stages, (*tailSpec)(nil), sinkStage
	route := pipe.route
	if route != nil && fact && route.allStar {
		route = nil
	}
	switch {
	case route != nil:
		// The chain's stages are the router's to build, per ordering.
		specs, exit = specs[:route.cut], route.cut
	case fact:
		tail = pipe.tail
	}
	words := 2*w.batchSize + w.appendStages(specs, tail, 2, exit)
	if route != nil {
		w.router = newRouteStage(route, pipe.outWidth-len(route.chains[0]))
		w.addStage(w.router)
	}
	entry := 0
	if len(w.bstages) == 0 {
		entry = sinkStage
	}
	w.edges = newFanOut(1, oneColumn, w.batchSize, entry, scanBatches)
	w.memBytes = int64(words) * vertexIDBytes
	w.tuple = make([]graph.VertexID, 0, pipe.outWidth)
	w.chargeCheckout()
	return w
}

// countsLast reports whether a worker of the run counts its last stage's
// fan-outs instead of writing them: on the driver pipeline of a count —
// no emit, no EXPLAIN ANALYZE counters (they count rows at the sink) and
// no count budget (only a factorized tail charges it).
func countsLast(rc *runContext, isRoot bool, emit func([]graph.VertexID) bool) bool {
	return isRoot && emit == nil && rc.analyze == nil && rc.countBudget == nil
}

// addStage appends st to the stage chain with its wall-time slot.
func (w *worker) addStage(st batchStage) {
	w.bstages = append(w.bstages, st)
	w.stageNanos = append(w.stageNanos, 0)
}

// appendStages mints the batch states of specs — the operators before
// tail.cut one by one and, when tail is non-nil and has a cut inside
// specs, one componentTail over the E/I operators from there on — and
// appends them to the stage chain, each feeding the next and the last
// feeding exit. width is the first one's input width; the result is their
// batch scratch in words (output batches, plus a publishing stage's run
// table: one more column's worth).
func (w *worker) appendStages(specs []stageSpec, tail *tailSpec, width, exit int) int {
	cut := len(specs)
	if tail != nil {
		cut = tail.cut
	}
	words := 0
	for i, spec := range specs[:cut] {
		next := len(w.bstages) + 1
		if i == len(specs)-1 {
			next = exit
		}
		st := spec.newBatchState(w.rc, next, width, w.batchSize)
		out := st.output().batch
		width = len(out.cols)
		words += width*w.batchSize + cap(out.runEnds)
		w.addStage(st)
	}
	if cut < len(specs) {
		t := newComponentTail(w.rc, tail, specs[cut:], exit, width, w.batchSize)
		words += len(t.out.batch.cols) * w.batchSize
		w.addStage(t)
	}
	return words
}

// chargeCheckout reserves the worker's batch scratch against the run's
// memory budget and visits the worker-start fault point. A refused
// reservation latches the budget's exceeded state and raises the shared
// stopped flag, so the worker's scan loop exits at its first vertex and
// the driver reports the budget error.
func (w *worker) chargeCheckout() {
	if !w.rc.mem.Reserve(w.memBytes) {
		w.stopped.Store(true)
	}
	w.rc.faults.Visit(faultinject.PointWorkerStart)
}

// rebind readies a pooled worker for a fresh run: the per-run bindings,
// the graph the run reads included, are replaced and every stage resets
// its mutable state (cache validity, per-operator counters, hash-table
// pointers) while keeping its allocated scratch.
func (w *worker) rebind(rc *runContext, emit func([]graph.VertexID) bool, stopped *atomic.Bool, mq *morselQueue) {
	w.g = rc.cp.graph
	w.rc = rc
	w.emit = emit
	w.build, w.frag = rc.tables[w.pipe.feeds], nil
	w.stopped = stopped
	w.mq = mq
	w.countFast = countsLast(rc, w.isRoot, emit)
	w.cancelCountdown = cancelCheckInterval
	w.profile = Profile{}
	w.scanOut = 0
	w.tuple = w.tuple[:0]
	w.edges.batch.clear()
	for _, s := range w.bstages {
		s.reset(rc)
	}
	for i := range w.stageNanos {
		w.stageNanos[i] = 0
	}
	w.curStage = 0
	w.lastStamp = time.Now()
}

// release returns a worker's scratch to its pipeline's pool once its
// profile has been collected. Poisoned workers (a foreign panic unwound
// through their stages, so batches and caches may be mid-mutation) are
// dropped for the garbage collector. References that could pin caller
// state (emit closures, the run context) are dropped before pooling, and
// so is every reference into the graph the run read: the pool outlives
// the snapshot, and must not keep a superseded overlay or base reachable.
func (w *worker) release() {
	if w.poisoned {
		return
	}
	w.g = nil
	w.rc = nil
	w.emit = nil
	w.build, w.frag = nil, nil
	w.stopped = nil
	w.mq = nil
	w.scanReader.Forget()
	for _, s := range w.bstages {
		switch st := s.(type) {
		case *batchExtendState:
			st.forget()
		case *componentTail:
			st.forget()
		}
	}
	w.pipe.pool.Put(w)
}

// stopRun unwinds a pipeline when emit requests early termination; the
// worker's range loop recovers it.
type stopRun struct{}

// recovered runs f, converting a stopRun unwind into the shared stopped
// flag so sibling workers cease at their next check. A foreign panic —
// an engine bug, a panicking emit callback, or an injected fault — is
// isolated to this query: it is recorded (with its stack) as the run's
// failure instead of unwinding the process, the worker is poisoned so
// its possibly inconsistent scratch never re-enters the pool, and the
// runner drains cleanly through the same stopped flag.
func (w *worker) recovered(f func()) {
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if _, ok := rec.(stopRun); !ok {
			w.poisoned = true
			w.rc.fail(rec)
		}
		w.stopped.Store(true)
	}()
	f()
}

// runRecovered scans [start, end) under the stopRun recover.
func (w *worker) runRecovered(start, end int) {
	w.recovered(func() { w.runBatchRange(start, end) })
}

// pollCancel consults the run's context and memory budget and unwinds
// the pipeline via the same stopRun machinery as emit-driven early
// termination when either demands a stop. The run driver reads runErr
// afterwards, so the reason (panic > budget > context) is never lost in
// the unwind. It is the ctxpoll analyzer's anchor: a stage loop
// complies by reaching this call — which also makes it the one place
// budget exhaustion and injected faults are observed, preserving the
// zero-alloc steady state of the hot loops.
//
//gf:pollpoint
func (w *worker) pollCancel() {
	w.cancelCountdown = cancelCheckInterval
	w.rc.faults.Visit(faultinject.PointPoll)
	if w.rc.mem.Exceeded() || w.rc.ctx.Err() != nil {
		w.stopped.Store(true)
		panic(stopRun{})
	}
}

// admitBuild clears n more rows for the worker's hash-table fragment and
// returns it with room for them: the build sink's fault point, the
// MaxBuildRows check and the memory reservation, once per batch. A
// refusal unwinds the pipeline like any early stop; the driver reads the
// reason off the table's admitted count or the budget.
//
//gf:noalloc
func (w *worker) admitBuild(n int) *tableFragment {
	ht := w.build
	w.rc.faults.Visit(faultinject.PointHashBuild)
	if maxRows := w.rc.cfg.MaxBuildRows; maxRows > 0 && ht.admitted.Add(int64(n)) > maxRows {
		panic(stopRun{})
	}
	words := n * ht.rowWidth
	if f := w.frag; f == nil || len(f.rows)+words > cap(f.rows) {
		if w.frag = ht.fragment(words, w.rc.mem); w.frag == nil {
			panic(stopRun{})
		}
	}
	return w.frag
}

// eachState calls ext for every E/I state and probe for every hash-probe
// state of the worker's stage chain.
func (w *worker) eachState(ext func(*extendState), probe func(*probeState)) {
	for _, s := range w.bstages {
		switch st := s.(type) {
		case *batchExtendState:
			ext(&st.es)
		case *batchProbeState:
			probe(&st.ps)
		case *componentTail:
			for _, op := range st.stages {
				ext(&op.es)
			}
		}
	}
}

// enterStage charges the interval since lastStamp to the current stage
// slot and switches attribution to idx, returning the previous slot for
// leaveStage to restore. Two time.Now calls bracket every dispatched
// batch — amortized over the batch's rows, and allocation-free, so the
// steady-state hot path stays 0 allocs/op with timing always on.
func (w *worker) enterStage(idx int) int {
	now := time.Now()
	w.stageNanos[w.curStage] += now.Sub(w.lastStamp).Nanoseconds()
	w.lastStamp = now
	prev := w.curStage
	w.curStage = idx
	return prev
}

// leaveStage closes the current slot's interval and restores prev.
func (w *worker) leaveStage(prev int) {
	now := time.Now()
	w.stageNanos[w.curStage] += now.Sub(w.lastStamp).Nanoseconds()
	w.lastStamp = now
	w.curStage = prev
}

// foldStageTimes folds the indexed per-slot nanos into the profile's
// per-stage-kind attribution (and, when an analysis collector is
// attached, into per-plan-node wall times). Slot kinds follow the
// worker's stage chain; the sink slot is build-insert time for build
// pipelines and emit time for the root.
func (w *worker) foldStageTimes() {
	if w.stageNanos == nil {
		return
	}
	// Close the open interval (trailing scan time since the last batch).
	now := time.Now()
	w.stageNanos[w.curStage] += now.Sub(w.lastStamp).Nanoseconds()
	w.lastStamp = now
	w.curStage = 0

	st := &w.profile.Stages
	st.Scan += w.stageNanos[0]
	for i, s := range w.bstages {
		n := w.stageNanos[i+2]
		switch s.(type) {
		case *batchExtendState, *routeStage:
			st.Extend += n
		case *batchProbeState:
			st.Probe += n
		case *componentTail:
			st.Factorized += n
		}
	}
	sinkN := w.stageNanos[1]
	if w.pipe.feeds != nil {
		st.Build += sinkN
	} else {
		st.Emit += sinkN
	}
	if nc := w.rc.analyze; nc != nil {
		// Analysis runs the plan's own ordering, so bstages[i] maps 1:1 onto
		// pipe.stages[i] — a factorized tail's time lands on its first
		// operator; sink time lands on the pipeline's own node.
		nc.addNanos(w.pipe.scan, w.stageNanos[0])
		for i := range w.bstages {
			if i < len(w.pipe.stages) {
				nc.addNanos(w.pipe.stages[i].planNode(), w.stageNanos[i+2])
			}
		}
		nc.addNanos(w.pipe.node, sinkN)
	}
	for i := range w.stageNanos {
		w.stageNanos[i] = 0
	}
}

// finish flushes per-operator counters into the worker's profile and the
// run's analysis collector, if one is attached.
func (w *worker) finish() {
	w.foldStageTimes()
	nc := w.rc.analyze
	w.eachState(func(st *extendState) {
		if nc != nil {
			nc.add(st.spec.op, OpStats{PinnedProbes: st.it.Counters.PinnedProbe})
		}
		w.profile.Kernels.Add(st.it.Counters)
		st.it.Counters = graph.KernelCounters{}
	}, func(*probeState) {})
	if nc == nil {
		return
	}
	nc.add(w.pipe.scan, OpStats{OutTuples: w.scanOut})
	w.scanOut = 0
	w.eachState(func(st *extendState) {
		nc.add(st.spec.op, OpStats{OutTuples: st.outTuples, ICost: st.icost, CacheHits: st.hits, CarriedSets: st.carried})
		st.outTuples, st.icost, st.hits, st.carried = 0, 0, 0, 0
	}, func(st *probeState) {
		nc.add(st.spec.op, OpStats{OutTuples: st.outTuples, Probes: st.probes, BuildRows: int64(st.table.len())})
		st.outTuples, st.probes = 0, 0
	})
	for _, s := range w.bstages {
		if t, ok := s.(*componentTail); ok {
			nc.addTail(t)
		}
	}
}

// extendState implements EXTEND/INTERSECT with the intersection cache.
// extensionSetFor is the one general path — a factorized tail's, and the
// pieces batchExtendState.extFor builds its prefix runs from.
type extendState struct {
	spec     *extendSpec
	useCache bool

	// Intersection cache (Section 3.1): if consecutive tuples present the
	// same source vertices to the descriptors, the extension set is reused.
	// cacheKey is the key of the last set computed; the vectorized stage
	// loads each row's key into it (loadKey) before computing the row's
	// set, inside a prefix run too.
	cacheKey   []graph.VertexID
	cacheValid bool
	// cacheExt is the served extension set: for multiway intersections it
	// is cacheBuf (owned storage the kernels write into), for
	// single-descriptor extensions it aliases the immutable adjacency run
	// directly — valid for the whole run, which holds its snapshot — so
	// plain extends never copy their neighbour list.
	cacheExt []graph.VertexID
	cacheBuf []graph.VertexID // owns the cached extension set (flat array)
	scratch  []graph.VertexID
	lists    [][]graph.VertexID
	// readers own the per-descriptor neighbor fill buffers (one each, so
	// a multiway gather never clobbers an earlier descriptor's run).
	readers []graph.NeighborReader

	// it is the k-way intersection engine. It owns the shortest-first
	// ordering scratch, the per-kernel dispatch counters and the pin
	// bitmap, so the E/I hot path runs allocation-free after warm-up.
	it graph.Intersector

	// pins lets the stage work a prefix run at a time: the one operand the
	// run's rows share is marked once in the intersector's bitmap and the
	// other lists are swept through it. It is the cache generalised to one
	// repeating operand, so it follows useCache, and only where every list
	// is a set (extendSpec.sets): a bitmap has no multiplicities.
	pins bool

	// metered is the cache/scratch/pin capacity (in bytes) already charged
	// to the current run's memory budget; only growth beyond it is
	// reserved, so the steady state pays one integer compare.
	metered int64

	// Per-operator analysis counters (collected by worker.finish).
	outTuples, icost, hits, carried int64
}

func newExtendState(spec *extendSpec) extendState {
	n := len(spec.op.Descriptors)
	return extendState{spec: spec, cacheKey: make([]graph.VertexID, n), readers: make([]graph.NeighborReader, n)}
}

// reset readies the state for reuse by a pooled worker: cache validity
// and per-operator counters are cleared, allocated scratch (cache
// buffers, readers, intersector state) is kept.
func (s *extendState) reset(rc *runContext) {
	s.useCache = !rc.cfg.DisableCache
	s.pins = s.useCache && s.spec.sets
	s.it.Words = (rc.cp.graph.NumVertices() + 63) / 64
	s.cacheValid = false
	// The retained buffers are now held on behalf of the next run: its
	// budget is recharged for their full capacity on first use.
	s.metered = 0
	s.outTuples, s.icost, s.hits, s.carried = 0, 0, 0, 0
}

// extensionSetFor computes (or serves from the intersection cache) the
// extension set for the given descriptor source vertices, one per
// descriptor in declaration order. carried, when non-nil, is the
// extension set the upstream stage already computed over the descriptors
// in spec.covered (an inheriting stage): the set is then carried ∩ (the
// remaining descriptors' lists) and the covered lists are never read.
//
//gf:noalloc
func (s *extendState) extensionSetFor(w *worker, vals, carried []graph.VertexID) []graph.VertexID {
	if s.cached(w, vals) {
		return s.cacheExt
	}
	s.gather(w, vals, carried)
	return s.intersect(w, carried)
}

// pinnedSetFor is extensionSetFor for an operator whose operand at pos
// of its lists is pinned in its intersector: the other operands are swept
// through the bitmap (graph.Intersector.ProbePinned), or, past the
// cut-off towards hubs, intersected by the ordinary dispatch. Every
// operand is charged, as ever.
//
//gf:noalloc
func (s *extendState) pinnedSetFor(w *worker, vals, carried []graph.VertexID, pos int) []graph.VertexID {
	if s.cached(w, vals) {
		return s.cacheExt
	}
	s.gather(w, vals, carried)
	ext, scratch, ok := s.it.ProbePinned(s.lists, pos, s.cacheBuf[:0], s.scratch)
	if !ok {
		return s.intersect(w, carried)
	}
	s.serve(ext, scratch)
	return ext
}

// cached is the cache lookup: a hit when vals is the key of the last set
// computed (cacheExt is then the answer), and otherwise the key the set
// about to be computed will be stored under.
func (s *extendState) cached(w *worker, vals []graph.VertexID) bool {
	if !s.useCache {
		return false
	}
	if s.cacheValid && slices.Equal(s.cacheKey, vals) {
		s.hit(w)
		return true
	}
	s.cacheKey = append(s.cacheKey[:0], vals...)
	return false
}

// hit serves the cached set once more.
func (s *extendState) hit(w *worker) []graph.VertexID {
	w.profile.CacheHits++
	s.hits++
	return s.cacheExt
}

// gather fills s.lists with the operands of vals' intersection — the
// carried set, if any, then one adjacency run per descriptor it does not
// cover — and charges them.
func (s *extendState) gather(w *worker, vals, carried []graph.VertexID) {
	op := s.spec.op
	s.lists = s.lists[:0]
	covered := uint32(0)
	cost := int64(0)
	if carried != nil {
		covered = s.spec.covered
		s.lists = append(s.lists, carried)
		cost = int64(len(carried))
	}
	for i := range op.Descriptors {
		if covered&(1<<uint(i)) != 0 {
			continue
		}
		d := &op.Descriptors[i]
		l := s.readers[i].Read(w.g, vals[i], d.Dir, d.EdgeLabel, op.TargetLabel)
		s.lists = append(s.lists, l)
		cost += int64(len(l))
	}
	s.charge(w, cost, carried != nil)
}

// charge accounts one computed intersection: i-cost counts every accessed
// list's size (Equation 1) — a carried set stands in for the lists it
// replaces, and an operand a prefix run shares is charged to every
// intersection of the run.
func (s *extendState) charge(w *worker, cost int64, carried bool) {
	if carried {
		w.profile.CarriedSets++
		s.carried++
	}
	w.profile.ICost += cost
	s.icost += cost
}

// intersect computes the extension set of the operands gather left in
// s.lists through the ordinary kernel dispatch, and serves it.
func (s *extendState) intersect(w *worker, carried []graph.VertexID) []graph.VertexID {
	if carried == nil && len(s.lists) == 1 {
		// The single-descriptor alias is never assigned to cacheBuf, so the
		// next multiway intersection cannot scribble over graph storage.
		ext := s.lists[0]
		s.cacheExt, s.cacheValid = ext, s.useCache
		return ext
	}
	// Multiway extension: a carried set stands first in s.lists and seeds
	// the intersection of the rest.
	runs := s.lists
	if carried != nil {
		runs = s.lists[1:]
	}
	ext, scratch := s.it.IntersectSeeded(carried, runs, s.cacheBuf[:0], s.scratch)
	s.serve(ext, scratch)
	s.meter(w)
	return ext
}

// serve makes ext — a kernel's output, with the buffer it ping-ponged
// with — the stage's current extension set. cacheBuf stays the owned
// kernel output buffer whether or not the cache is on: with it off every
// intersection still writes into the same storage instead of growing a
// fresh slice.
func (s *extendState) serve(ext, scratch []graph.VertexID) {
	s.cacheBuf, s.scratch = ext, scratch
	s.cacheExt, s.cacheValid = ext, s.useCache
}

// meter charges kernel-buffer growth (the factorized extension-set caches
// of the memory budget) and the intersector's pin bitmap, once it has
// pinned — capacity deltas only, so warm buffers cost one compare.
// Exhaustion is observed at the next pollpoint.
func (s *extendState) meter(w *worker) {
	if n := int64(cap(s.cacheBuf)+cap(s.scratch))*vertexIDBytes + s.it.PinBytes(); n > s.metered {
		w.rc.mem.Reserve(n - s.metered)
		s.metered = n
	}
}

// probeState implements the probe side of HASH-JOIN.
type probeState struct {
	spec  *probeSpec
	table *hashTable
	// key is the join key of the current key run.
	key []graph.VertexID

	// Per-operator analysis counters.
	outTuples, probes int64
}
