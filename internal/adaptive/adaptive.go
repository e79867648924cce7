// Package adaptive implements the adaptive WCO plan evaluation of Section
// 6: when a plan contains a chain of two or more EXTEND/INTERSECT
// operators, the chain's query-vertex ordering is re-chosen for every
// input tuple using the tuple's actual adjacency-list sizes instead of the
// catalogue's averages.
//
// The non-adapted part of the plan (the SCAN of a WCO plan, or everything
// below the topmost E/I chain of a hybrid plan) runs on the regular
// executor; each of its output tuples is routed to the candidate ordering
// whose re-estimated i-cost is lowest (Example 6.2's re-estimation rule),
// and flows through that ordering's own operator chain with its own
// intersection cache.
package adaptive

import (
	"context"
	"fmt"
	"math"

	"graphflow/internal/catalogue"
	"graphflow/internal/exec"
	"graphflow/internal/faultinject"
	"graphflow/internal/graph"
	"graphflow/internal/plan"
	"graphflow/internal/query"
	"graphflow/internal/resource"
)

// Config controls adaptive evaluation.
type Config struct {
	// MaxOrderings caps the number of candidate orderings per adaptive
	// chain (default 48): cliques have factorially many near-identical
	// orderings with little adaptation benefit (Section 8.3's Q6 note).
	MaxOrderings int
	// Workers parallelises the non-adapted source pipeline.
	Workers int
	// HubThreshold is the store's hub bitset indexing knob (0 takes
	// graph.DefaultHubThreshold, negative means no indexes); the
	// re-estimation rule prices candidate orderings with it so adaptation
	// and the executor agree on what an intersection costs.
	HubThreshold int
	// BatchSize is the number of source tuples buffered per adaptive
	// batch. Ordering re-estimation runs once per distinct route-key run
	// within a batch (consecutive tuples that agree on every slot any
	// candidate ordering's first step reads — their re-estimates are
	// provably identical) instead of once per tuple, mirroring the
	// executor's batch-boundary amortization. 0 picks a plan-adaptive
	// size from the adapted suffix depth (exec.AdaptiveBatchSize);
	// negative values clamp to 1 (per-tuple re-estimation, the
	// pre-vectorization behavior).
	BatchSize int
	// MemBudget meters the evaluation's buffers — the source batch and
	// every step's intersection cache — alongside the source pipeline's
	// own accounting (see exec.RunConfig.MemBudget). Exhaustion stops
	// the chain at its amortized poll and surfaces as the budget's
	// structured error.
	MemBudget *resource.Budget
	// Faults is the fault-injection hook threaded to the source
	// pipeline (see exec.RunConfig.Faults).
	Faults *faultinject.Injector
}

func (c Config) withDefaults() Config {
	if c.MaxOrderings <= 0 {
		c.MaxOrderings = 48
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.BatchSize < 0 {
		c.BatchSize = 1
	}
	return c
}

// Evaluator adapts and runs plans against one graph + catalogue pair.
type Evaluator struct {
	Graph     graph.View
	Catalogue *catalogue.Catalogue
	Config    Config
}

// Adaptable reports whether p has an adaptive part: a chain of at least two
// E/I operators at the top of its driver pipeline.
func Adaptable(p *plan.Plan) bool {
	chain, _ := splitChain(p.Root)
	return len(chain) >= 2
}

// splitChain peels consecutive Extend operators off the root, returning
// them bottom-up together with the source subplan below them.
func splitChain(root plan.Node) ([]*plan.Extend, plan.Node) {
	var chain []*plan.Extend
	cur := root
	for {
		ext, ok := cur.(*plan.Extend)
		if !ok {
			break
		}
		chain = append(chain, ext)
		cur = ext.Child
	}
	// chain is top-down; reverse to bottom-up.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain, cur
}

// Count evaluates p adaptively and returns the match count and profile.
// Plans without an adaptable chain fall back to fixed execution.
func (e *Evaluator) Count(p *plan.Plan) (int64, exec.Profile, error) {
	return e.CountCtx(context.Background(), p)
}

// CountCtx is Count bounded by ctx: evaluation stops promptly once ctx is
// cancelled and the partial count is returned alongside ctx's error.
func (e *Evaluator) CountCtx(ctx context.Context, p *plan.Plan) (int64, exec.Profile, error) {
	var n int64
	prof, err := e.RunCtx(ctx, p, func([]graph.VertexID) { n++ })
	return n, prof, err
}

// Run evaluates p adaptively, calling emit for every match. Tuple layout
// is the source layout followed by the chain's target vertices in the
// order the chosen QVO matched them (orderings differ per tuple, so
// callers needing vertex identities should index via the final layout
// passed to Layout).
func (e *Evaluator) Run(p *plan.Plan, emit func([]graph.VertexID)) (exec.Profile, error) {
	return e.RunCtx(context.Background(), p, emit)
}

// RunCtx is Run bounded by ctx. The source pipeline polls ctx through the
// executor's amortized check; the adaptive chains additionally poll it
// every few thousand extensions so a single source tuple with a massive
// chain fan-out cannot delay cancellation.
func (e *Evaluator) RunCtx(ctx context.Context, p *plan.Plan, emit func([]graph.VertexID)) (exec.Profile, error) {
	cfg := e.Config.withDefaults()
	if err := p.Validate(); err != nil {
		return exec.Profile{}, err
	}
	chain, source := splitChain(p.Root)
	runner := &exec.Runner{Graph: e.Graph, Workers: cfg.Workers, MemBudget: cfg.MemBudget, Faults: cfg.Faults}
	if len(chain) < 2 {
		return runner.RunPlanCtx(ctx, p, emit)
	}
	ad, err := newAdaptiveChain(e.Graph, e.Catalogue, p.Query, source, chain, cfg)
	if err != nil {
		return exec.Profile{}, err
	}
	ad.ctx = ctx
	ad.mem = cfg.MemBudget
	// Drive the source; adaptation is stateful per ordering, so the source
	// must feed tuples sequentially. Tuples buffer into a columnar batch
	// and the chain consumes it at batch boundaries.
	srcRunner := &exec.Runner{Graph: e.Graph, Workers: cfg.Workers, MemBudget: cfg.MemBudget, Faults: cfg.Faults}
	prof, err := srcRunner.RunSubplanCtx(ctx, source, func(t []graph.VertexID) {
		ad.process(t, emit)
	})
	// Drain the tail batch (a no-op when cancelled).
	ad.flush(emit)
	// Merge the chain's counters before returning so cancellation still
	// reports the partial profile (matching the executor's contract).
	// Source outputs were counted as Matches by RunSubplan; they are
	// intermediate here.
	prof.Intermediate += prof.Matches
	prof.Matches = 0
	ad.profile.Kernels.Add(ad.it.Counters)
	ad.it.Counters = graph.KernelCounters{}
	prof.Add(ad.profile)
	if err != nil {
		return prof, err
	}
	// The chain may have latched budget exhaustion after the source
	// pipeline finished (mid-flush); surface it like the executor does.
	if berr := cfg.MemBudget.Err(); berr != nil {
		return prof, berr
	}
	if ctx != nil && ctx.Err() != nil {
		return prof, ctx.Err()
	}
	return prof, nil
}

// ordering is one candidate QVO for the adaptive chain, with its compiled
// steps and static estimates.
type ordering struct {
	vertices []int  // remaining query vertices in match order
	steps    []step // one per vertex
}

// step is one E/I level of an ordering.
type step struct {
	target      int
	targetLabel graph.Label
	descs       []desc
	estSizes    []float64 // catalogue average list sizes per desc
	estICost    float64   // EffectiveICost(estSizes) under the hub threshold
	estMu       float64
	// Per-step intersection cache.
	cacheKey   []graph.VertexID
	cacheValid bool
	cacheBuf   []graph.VertexID
	scratch    []graph.VertexID
	// meteredCap is the cache/scratch capacity (vertices) already charged
	// to the memory budget; only growth beyond it is reserved.
	meteredCap int
}

type desc struct {
	slot  int // slot in the evolving tuple
	dir   graph.Direction
	label graph.Label
}

type adaptiveChain struct {
	g      graph.View
	q      *query.Graph
	orders []*ordering
	width  int // source tuple width
	tuple  []graph.VertexID
	lists  [][]graph.VertexID
	bits   []*graph.Bitset
	// Source-tuple batching: tuples accumulate row-major (stride width)
	// and the chain drains them per batch, re-picking the ordering only
	// at route-key run boundaries.
	batchCap   int
	batchBuf   []graph.VertexID
	batchRows  int
	routeSlots []int // union of every ordering's first-step descriptor slots
	lastKey    []graph.VertexID
	lastValid  bool
	lastBest   int
	// it is the degree-adaptive intersection engine shared by every
	// ordering's steps; its kernel counters merge into the profile when
	// the run finishes.
	it           graph.Intersector
	actualSizes  []float64
	hubThreshold int
	// nWords is the graph's bitset word count, for the bitset-candidate
	// pre-check (mirrors the executor's E/I stage).
	nWords  int
	profile exec.Profile
	// ctx, when non-nil, bounds the chain's own extension work; cancelled
	// short-circuits runStep so in-flight recursion unwinds quickly and
	// later source tuples become no-ops while the source pipeline stops.
	ctx             context.Context
	cancelled       bool
	cancelCountdown int
	// mem meters the chain's buffers (source batch, per-step caches)
	// against the query's memory budget; exhaustion — latched here or by
	// any other allocator sharing the budget — cancels the chain at its
	// amortized poll. meteredBatchCap tracks the batch capacity already
	// charged, so the steady state pays one compare per buffered tuple.
	mem             *resource.Budget
	meteredBatchCap int
}

// cancelCheckInterval matches the executor's amortized polling cadence.
const cancelCheckInterval = 4096

func newAdaptiveChain(g graph.View, cat *catalogue.Catalogue, q *query.Graph, source plan.Node, chain []*plan.Extend, cfg Config) (*adaptiveChain, error) {
	baseMask := plan.CoverMask(source)
	baseOut := source.Out()
	var remaining []int
	for _, ext := range chain {
		remaining = append(remaining, ext.TargetVertex)
	}
	batchCap := cfg.BatchSize
	if batchCap == 0 {
		// Shallow adapted suffixes re-estimate rarely, so large buffers only
		// add cache pressure; deep ones amortize across more stages.
		batchCap = exec.AdaptiveBatchSize(len(chain))
	}
	ad := &adaptiveChain{
		g: g, q: q, width: len(baseOut), hubThreshold: cfg.HubThreshold,
		nWords:   (g.NumVertices() + 63) / 64,
		batchCap: batchCap,
	}

	// Enumerate connected orderings of the remaining vertices.
	var orderings [][]int
	var rec func(cur []int, mask query.Mask)
	rec = func(cur []int, mask query.Mask) {
		if len(orderings) >= cfg.MaxOrderings {
			return
		}
		if len(cur) == len(remaining) {
			orderings = append(orderings, append([]int(nil), cur...))
			return
		}
		for _, v := range remaining {
			if mask&query.Bit(v) != 0 {
				continue
			}
			if len(q.EdgesBetween(mask, v)) == 0 {
				continue
			}
			rec(append(cur, v), mask|query.Bit(v))
		}
	}
	rec(nil, baseMask)
	if len(orderings) == 0 {
		return nil, fmt.Errorf("adaptive: no connected orderings")
	}

	for _, ov := range orderings {
		o := &ordering{vertices: ov}
		slotOf := map[int]int{}
		for s, v := range baseOut {
			slotOf[v] = s
		}
		mask := baseMask
		width := len(baseOut)
		for _, v := range ov {
			st := step{target: v, targetLabel: q.Vertices[v].Label}
			// Build descriptors and fetch catalogue estimates.
			for _, e := range q.EdgesBetween(mask, v) {
				if e.From == v {
					st.descs = append(st.descs, desc{slot: slotOf[e.To], dir: graph.Backward, label: e.Label})
				} else {
					st.descs = append(st.descs, desc{slot: slotOf[e.From], dir: graph.Forward, label: e.Label})
				}
			}
			sizes := make([]float64, len(st.descs))
			mu, _ := cat.ExtendStats(q, mask, v, sizes)
			st.estSizes = sizes
			st.estICost = catalogue.EffectiveICost(sizes, cfg.HubThreshold)
			st.estMu = mu
			o.steps = append(o.steps, st)
			slotOf[v] = width
			width++
			mask |= query.Bit(v)
		}
		ad.orders = append(ad.orders, o)
	}
	// routeSlots is every tuple slot any ordering's first step reads: two
	// tuples agreeing on all of them re-estimate identically, so a run of
	// them shares one re-estimation (and one routing decision).
	seen := map[int]bool{}
	for _, o := range ad.orders {
		for _, d := range o.steps[0].descs {
			if !seen[d.slot] {
				seen[d.slot] = true
				ad.routeSlots = append(ad.routeSlots, d.slot)
			}
		}
	}
	return ad, nil
}

// process buffers one source tuple, draining the batch when it fills.
func (ad *adaptiveChain) process(t []graph.VertexID, emit func([]graph.VertexID)) {
	if ad.cancelled {
		return
	}
	ad.batchBuf = append(ad.batchBuf, t...)
	if c := cap(ad.batchBuf); c > ad.meteredBatchCap {
		ad.mem.Reserve(int64(c-ad.meteredBatchCap) * 4)
		ad.meteredBatchCap = c
	}
	ad.batchRows++
	if ad.batchRows >= ad.batchCap {
		ad.flush(emit)
	}
}

// sameRoute reports whether t agrees with the previous routing key on
// every route slot.
func (ad *adaptiveChain) sameRoute(t []graph.VertexID) bool {
	for i, s := range ad.routeSlots {
		if ad.lastKey[i] != t[s] {
			return false
		}
	}
	return true
}

// flush drains the buffered source batch through the chain: the
// candidate orderings are re-estimated once per distinct route-key run
// (Example 6.2's rule, amortized across the run), the batch is the
// cancellation poll granularity, and each tuple then flows through the
// chosen ordering's own operator chain.
func (ad *adaptiveChain) flush(emit func([]graph.VertexID)) {
	rows := ad.batchRows
	ad.batchRows = 0
	if rows == 0 || ad.cancelled {
		ad.batchBuf = ad.batchBuf[:0]
		return
	}
	if ad.ctx != nil && ad.ctx.Err() != nil {
		ad.cancelled = true
		ad.batchBuf = ad.batchBuf[:0]
		return
	}
	w := ad.width
	for r := 0; r < rows && !ad.cancelled; r++ {
		t := ad.batchBuf[r*w : (r+1)*w]
		if !ad.lastValid || !ad.sameRoute(t) {
			best, bestCost := 0, math.Inf(1)
			for i, o := range ad.orders {
				if c := ad.reestimate(o, t); c < bestCost {
					best, bestCost = i, c
				}
			}
			ad.lastBest = best
			ad.lastKey = ad.lastKey[:0]
			for _, s := range ad.routeSlots {
				ad.lastKey = append(ad.lastKey, t[s])
			}
			ad.lastValid = true
		}
		ad.tuple = append(ad.tuple[:0], t...)
		ad.runStep(ad.orders[ad.lastBest], 0, emit)
	}
	ad.batchBuf = ad.batchBuf[:0]
}

// reestimate recomputes the ordering's i-cost for this tuple: the first
// step's list sizes are replaced by the tuple's actual adjacency-list
// sizes, and its µ is rescaled by the actual/estimated size ratios
// (Example 6.2); later steps keep catalogue estimates.
func (ad *adaptiveChain) reestimate(o *ordering, t []graph.VertexID) float64 {
	first := &o.steps[0]
	muScale := 1.0
	ad.actualSizes = ad.actualSizes[:0]
	for i, d := range first.descs {
		actual := float64(ad.g.Degree(t[d.slot], d.dir, d.label, first.targetLabel))
		ad.actualSizes = append(ad.actualSizes, actual)
		if est := first.estSizes[i]; est > 0 {
			muScale *= actual / est
		} else if actual == 0 {
			muScale = 0
		}
	}
	// The first step is priced from the tuple's actual list sizes, the
	// later ones from the catalogue averages — both through the
	// hub-aware effective i-cost the executor's kernels realise.
	cost := catalogue.EffectiveICost(ad.actualSizes, ad.hubThreshold)
	card := first.estMu * muScale
	for s := 1; s < len(o.steps); s++ {
		st := &o.steps[s]
		cost += card * st.estICost
		card *= st.estMu
	}
	return cost
}

// runStep pushes the current tuple through step s of ordering o.
func (ad *adaptiveChain) runStep(o *ordering, s int, emit func([]graph.VertexID)) {
	ad.cancelCountdown--
	if ad.cancelCountdown <= 0 {
		ad.cancelCountdown = cancelCheckInterval
		if ad.mem.Exceeded() {
			ad.cancelled = true
		}
		if ad.ctx != nil && ad.ctx.Err() != nil {
			ad.cancelled = true
		}
	}
	if ad.cancelled {
		return
	}
	if s == len(o.steps) {
		ad.profile.Matches++
		if emit != nil {
			emit(ad.tuple)
		}
		return
	}
	st := &o.steps[s]
	// Intersection cache per step (consecutive tuples routed to the same
	// ordering still benefit).
	hit := false
	if st.cacheValid && len(st.cacheKey) == len(st.descs) {
		hit = true
		for i, d := range st.descs {
			if st.cacheKey[i] != ad.tuple[d.slot] {
				hit = false
				break
			}
		}
	}
	var ext []graph.VertexID
	if hit {
		ad.profile.CacheHits++
		ext = st.cacheBuf
	} else {
		st.cacheKey = st.cacheKey[:0]
		ad.lists = ad.lists[:0]
		for _, d := range st.descs {
			st.cacheKey = append(st.cacheKey, ad.tuple[d.slot])
			list := ad.g.Neighbors(ad.tuple[d.slot], d.dir, d.label, st.targetLabel, nil)
			ad.profile.ICost += int64(len(list))
			ad.lists = append(ad.lists, list)
		}
		if len(ad.lists) == 1 {
			st.cacheBuf = append(st.cacheBuf[:0], ad.lists[0]...)
		} else {
			// Fetch hub bitsets only for the lists the shared pre-filter
			// says could win a bitset kernel.
			ad.bits = ad.bits[:0]
			if floor, ok := graph.BitsetFetchFloor(ad.lists, ad.nWords); ok {
				for i, d := range st.descs {
					var bs *graph.Bitset
					if len(ad.lists[i]) >= floor {
						bs = ad.g.NeighborBitset(ad.tuple[d.slot], d.dir, d.label, st.targetLabel)
					}
					ad.bits = append(ad.bits, bs)
				}
			}
			st.cacheBuf, st.scratch = ad.it.IntersectK(ad.lists, ad.bits, st.cacheBuf[:0], st.scratch)
		}
		// Charge cache growth (capacity deltas only; a warm cache pays one
		// compare). Exhaustion is observed at the amortized poll above.
		if c := cap(st.cacheBuf) + cap(st.scratch); c > st.meteredCap {
			ad.mem.Reserve(int64(c-st.meteredCap) * 4)
			st.meteredCap = c
		}
		st.cacheValid = true
		ext = st.cacheBuf
	}
	base := len(ad.tuple)
	for i := 0; i < len(ext); i++ {
		ad.tuple = append(ad.tuple[:base], ext[i])
		if s < len(o.steps)-1 {
			ad.profile.Intermediate++
		}
		ad.runStep(o, s+1, emit)
		// Deeper steps may have clobbered cacheBuf? No: each step owns its
		// buffer, and recursion only touches deeper steps' buffers.
	}
	ad.tuple = ad.tuple[:base]
}
