package exec

import (
	"graphflow/internal/adaptive"
	"graphflow/internal/graph"
	"graphflow/internal/plan"
)

// This file is Section 6's adaptive evaluation as one stage of the
// vectorized engine. The policy — which orderings a plan's trailing E/I
// chain may be matched in, and which of them is cheapest for a tuple — is
// internal/adaptive's; the mechanism is the engine's own: every ordering
// is a chain of ordinary E/I stages (a factorized tail where the run asks
// for one), so the intersection cache, carried sets, pinned operands,
// factorized counting, limits, budgets and morsel parallelism apply to an
// adaptive run exactly as to a fixed one.

// routeSpec is the compiled form of a driver pipeline's adaptive part.
type routeSpec struct {
	routes *adaptive.Routes
	// cut is the index into the pipeline's stages where the chain begins.
	cut int
	// chains[o] is ordering o's operators compiled; chains[0] is the
	// pipeline's own stages[cut:].
	chains [][]stageSpec
	// star[o] is the length of ordering o's star-shaped suffix (at least 1:
	// a chain's last operator only reads slots bound before it). When every
	// ordering is a star from end to end (allStar), a factorized run takes
	// each as one tail computing the same sets: there is nothing to route,
	// and its workers are built without the router.
	star    []int
	allStar bool
	// perms[o][j] is the column of ordering o's output that holds slot j of
	// the plan root's layout; nil for the plan's own ordering.
	perms [][]int
}

func newRouteSpec(pipe *compiledPipeline, routes *adaptive.Routes) *routeSpec {
	k := len(routes.Chains[0])
	rs := &routeSpec{routes: routes, cut: len(pipe.stages) - k, allStar: true}
	rootOut := pipe.node.Out()
	for o, chain := range routes.Chains {
		specs, perm := pipe.stages[rs.cut:], []int(nil)
		if o > 0 {
			specs = nil
			for _, op := range chain {
				specs = appendExtend(specs, op)
			}
			var col [32]int // query vertex -> column of the ordering's output
			for c, v := range chain[k-1].Out() {
				col[v] = c
			}
			perm = make([]int, len(rootOut))
			for j, v := range rootOut {
				perm[j] = col[v]
			}
		}
		rs.chains = append(rs.chains, specs)
		star := plan.StarSuffixLen(chain[k-1])
		rs.star = append(rs.star, star)
		rs.allStar = rs.allStar && star == k
		rs.perms = append(rs.perms, perm)
	}
	return rs
}

// sinkStage addresses the pipeline's sink in a stage's next index. The
// last stage of a router's ordering o addresses it as sinkStage-o: the
// sink behind that ordering's column layout (see routeStage.rootLayout).
const sinkStage = -1

// routeStage is the router: it sits where the driver pipeline's trailing
// E/I chain begins, re-picks the chain's ordering once per route-key run
// of its input (consecutive rows that agree on every slot a first
// operator reads are priced identically), and pushes each maximal stretch
// of rows with one pick — the input's columns re-sliced, nothing copied —
// into that ordering's stages. An ordering's stages are built on first
// use and appended to the worker's stage list, so a worker pays for the
// orderings its share of the data actually takes and keeps them when it
// is pooled.
type routeStage struct {
	spec    *routeSpec
	inWidth int
	// entry[o] is the index of ordering o's first stage in worker.bstages;
	// 0 (never a stage behind a router) until it is built.
	entry []int
	// key is the route key of the current run, sizes what Pick measured for
	// it (see adaptive.Routes.Pick), pick the ordering it went to.
	key   []graph.VertexID
	sizes []float64
	pick  int
	// run is the stretch of input handed to an ordering, root an ordering's
	// output behind the plan root's layout: column headers only.
	run, root tupleBatch
}

func newRouteStage(spec *routeSpec, inWidth int) *routeStage {
	s := &routeStage{
		spec: spec, inWidth: inWidth,
		entry: make([]int, len(spec.chains)),
		key:   make([]graph.VertexID, len(spec.routes.Slots)),
		sizes: make([]float64, spec.routes.Lists()),
		run:   tupleBatch{cols: make([][]graph.VertexID, inWidth)},
		root:  tupleBatch{cols: make([][]graph.VertexID, inWidth+len(spec.chains[0]))},
	}
	s.reset(nil)
	return s
}

func (s *routeStage) output() *fanOut { return nil }

func (s *routeStage) reset(*runContext) {
	clearKey(s.key)
	s.pick = 0
}

//gf:noalloc
func (s *routeStage) pushBatch(w *worker, in *tupleBatch) {
	start := 0
	//gf:nopoll bounded by one batch (<= w.batchSize rows); dispatchBatch polled before delivering it and the orderings' stages poll as they dispatch
	for r := 0; r < in.n; r++ {
		changed := loadKey(s.key, in, s.spec.routes.Slots, r)
		if changed == 0 {
			continue
		}
		o := s.spec.routes.Pick(w.g, s.key, changed, s.sizes)
		if o != 0 {
			w.profile.Reroutes++
		}
		if o != s.pick {
			s.forward(w, in, start, r)
			start, s.pick = r, o
		}
	}
	s.forward(w, in, start, in.n)
}

// forward pushes rows [lo, hi) of in into the picked ordering's stages.
// The rows were counted when they were dispatched to the router; they
// are not its output.
func (s *routeStage) forward(w *worker, in *tupleBatch, lo, hi int) {
	if lo == hi {
		return
	}
	first := s.entry[s.pick]
	if first == 0 {
		first = s.build(w, s.pick)
	}
	for c := range s.run.cols {
		s.run.cols[c] = in.cols[c][lo:hi]
	}
	s.run.n = hi - lo
	// Under the router's own time slot: a run can be a single row, and two
	// clock reads per run would cost what routing it does.
	w.bstages[first].pushBatch(w, &s.run)
}

// build appends ordering o's stages to the worker's stage list — the same
// states newWorker mints for a fixed chain, a factorized tail over the
// ordering's own star suffix when the run is factorized — and charges
// their batch scratch to the run's budget (a refusal is observed at the
// next poll).
//
//gf:allowalloc an ordering's stages are built once per worker, on the first run routed to it, and pooled with the worker
func (s *routeStage) build(w *worker, o int) int {
	specs := s.spec.chains[o]
	cut := len(specs)
	if w.factorized {
		cut -= s.spec.star[o]
	}
	first := len(w.bstages)
	words := w.appendStages(specs, cut, s.inWidth, sinkStage-o)
	w.memBytes += int64(words) * vertexIDBytes
	w.rc.mem.Reserve(int64(words) * vertexIDBytes)
	s.entry[o] = first
	return first
}

// rootLayout re-points ordering o's output batch b into the plan root's
// Out() layout: emitted tuples look the same whichever ordering matched
// them.
func (s *routeStage) rootLayout(b *tupleBatch, o int) *tupleBatch {
	for j, c := range s.spec.perms[o] {
		s.root.cols[j] = b.cols[c]
	}
	s.root.n = b.n
	return &s.root
}
