package exec

import (
	"fmt"
	"slices"
	"sync"

	"graphflow/internal/adaptive"
	"graphflow/internal/graph"
	"graphflow/internal/plan"
)

// CompiledPlan is the immutable, executable form of a physical plan: the
// plan tree decomposed into flattened pipelines with all static layout
// work (stage widths, probe slot maps, hash-table key slots) done once.
// A CompiledPlan holds no mutable execution state — tuples, profiles,
// intersection caches and hash tables live in the per-run context that
// each Run/Count call materialises (per-pipeline worker scratch is
// recycled through a sync.Pool, which is itself concurrency-safe) — so
// one CompiledPlan may be executed by any number of goroutines
// simultaneously. The graph it reads is the one it was compiled over or
// the one On names; the pipelines and their pools depend only on the
// plan, so one compiled plan serves every snapshot of a live graph.
type CompiledPlan struct {
	graph graph.View
	root  plan.Node
	// pipes lists every pipeline in execution order: hash-join build
	// pipelines first (each before any pipeline that probes its table),
	// the driver pipeline last.
	pipes []*compiledPipeline
	// estCard is the optimizer's cardinality estimate carried over from
	// the plan (0 when compiled from a bare node): the input to the
	// plan-adaptive batch-size rule.
	estCard float64
}

// compiledPipeline is one flattened probe path: a SCAN plus the chain of
// operators above it, ending either at the plan root (the driver) or at
// the build side of a hash join.
type compiledPipeline struct {
	node   plan.Node // subplan node whose probe path this pipeline drives
	scan   *plan.Scan
	stages []stageSpec
	// feeds, when non-nil, is the hash join whose build side this
	// pipeline materialises; keySlots are the join-vertex slots in the
	// build tuple layout.
	feeds    *plan.HashJoin
	keySlots []int
	outWidth int
	// starSuffix is the index into stages where the pipeline's maximal
	// star-shaped suffix begins (plan.StarSuffixLen mapped onto the
	// flattened chain); len(stages) when there is none. The driver
	// pipeline's suffix, when present, runs as a factorizedTail stage
	// unless RunConfig.NoFactorize is set.
	starSuffix int
	// route, when non-nil, makes the driver pipeline's trailing E/I chain
	// adaptive (CompiledPlan.Adaptive): a worker places a router where the
	// chain begins instead of stages[route.cut:], which stay the plan's own
	// ordering.
	route *routeSpec
	// pool recycles fully-built workers (stage states, column batches,
	// intersection caches) across runs of this pipeline, so the steady
	// state of a PreparedQuery re-run allocates almost nothing.
	pool sync.Pool
	// tables recycles the hash tables of a build pipeline (feeds != nil)
	// the same way: arena fragments, sealed rows and directory.
	tables sync.Pool
}

// stageSpec is the static, shareable description of one operator above a
// scan. newBatchState mints its per-run mutable counterpart (next is the
// index of the stage that consumes its output, inWidth its input tuple
// width, batch its output batch's row capacity).
type stageSpec interface {
	newBatchState(rc *runContext, next, inWidth, batch int) batchStage
	planNode() plan.Node
}

// extendSpec is the compiled form of an EXTEND/INTERSECT operator.
type extendSpec struct {
	op *plan.Extend
	// covered marks the descriptors the upstream stage's extension set
	// already intersects (plan.Extend.Inherited); non-zero makes this an
	// inheriting stage: it intersects the set its upstream carried down
	// with the remaining descriptors' lists instead of re-reading the
	// covered ones. publishes is the matching mark on that upstream stage.
	covered   uint32
	publishes bool
	// sets says that no list the operator intersects can hold an ID twice
	// (listsAreSets): only then may a prefix run pin one in a bitmap.
	sets bool
	// slots are the input slots the descriptors read their source vertices
	// from, in descriptor order: the key the stage loads.
	slots []int
}

func (s *extendSpec) planNode() plan.Node { return s.op }

// listsAreSets reports whether no list op intersects can hold an ID twice.
// A wildcard edge label can: the lookup merges one run per edge label and
// keeps a neighbour reached under two labels twice, and the sorted
// kernels intersect such lists as multisets (the smaller multiplicity
// survives). A wildcard target label cannot — a vertex has one label, so
// the merged runs are disjoint.
func listsAreSets(op *plan.Extend) bool {
	for _, d := range op.Descriptors {
		if d.EdgeLabel == graph.WildcardLabel {
			return false
		}
	}
	return true
}

func (s *extendSpec) newBatchState(rc *runContext, next, inWidth, batch int) batchStage {
	st := &batchExtendState{
		es:  newExtendState(s),
		out: newFanOut(inWidth, oneColumn, batch, next, extendBatches),
	}
	if s.publishes {
		st.out.batch.runEnds = make([]int32, 0, batch)
	}
	st.reset(rc)
	return st
}

// probeSpec is the compiled form of a HASH-JOIN probe, its slot maps
// computed once.
type probeSpec struct {
	op         *plan.HashJoin
	probeSlots []int // slots in the probe tuple carrying the join vertices
	appendIdx  []int // slots in the build tuple to append to the output
}

func (s *probeSpec) planNode() plan.Node { return s.op }

func (s *probeSpec) newBatchState(rc *runContext, next, inWidth, batch int) batchStage {
	st := &batchProbeState{
		ps:  probeState{spec: s, key: make([]graph.VertexID, len(s.probeSlots))},
		out: newFanOut(inWidth, s.appendIdx, batch, next, probeBatches),
	}
	st.reset(rc)
	return st
}

// Compile validates p and lowers it into a CompiledPlan over g — any
// graph View: the immutable CSR store or a live snapshot of one epoch.
// g may be nil when every run names its graph with On.
func Compile(g graph.View, p *plan.Plan) (*CompiledPlan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cp := &CompiledPlan{graph: g, root: p.Root, estCard: p.EstimatedCardinality}
	if err := cp.addPipeline(p.Root, nil); err != nil {
		return nil, err
	}
	return cp, nil
}

// Adaptive returns cp with Section 6's adaptive evaluation of its plan's
// trailing E/I chain: routes (adaptive.Enumerate of that plan) names the
// orderings the chain may be matched in, and every run of the result
// re-picks among them per route-key run of the chain's input (see
// routeStage). Everything else — the pipelines below the chain, which the
// two plans share, the RunConfig a run takes, the plan root's Out() layout
// of emitted tuples — is cp's. With nil routes (nothing to adapt) the
// result is cp itself.
func (cp *CompiledPlan) Adaptive(routes *adaptive.Routes) *CompiledPlan {
	if routes == nil {
		return cp
	}
	d := cp.driver()
	routed := &compiledPipeline{node: d.node, scan: d.scan, stages: d.stages, outWidth: d.outWidth, starSuffix: d.starSuffix}
	routed.route = newRouteSpec(routed, routes)
	builds := cp.pipes[:len(cp.pipes)-1]
	return &CompiledPlan{
		graph: cp.graph, root: cp.root, estCard: cp.estCard,
		pipes: append(slices.Clip(builds), routed),
	}
}

// On returns cp reading g: a shallow copy that shares cp's pipelines, and
// with them its worker and hash-table pools. A pooled worker takes its
// graph from the run it is handed to and keeps nothing of it when the run
// ends, so runs on different snapshots share one plan's scratch.
func (cp *CompiledPlan) On(g graph.View) *CompiledPlan {
	on := *cp
	on.graph = g
	return &on
}

// Root returns the plan node this CompiledPlan executes.
func (cp *CompiledPlan) Root() plan.Node { return cp.root }

// driver returns the pipeline whose outputs are final matches (always
// compiled last).
func (cp *CompiledPlan) driver() *compiledPipeline { return cp.pipes[len(cp.pipes)-1] }

// StarSuffixLen reports the length of the driver pipeline's star-shaped
// suffix: the number of trailing E/I stages a run evaluates as a
// factorizedTail unless RunConfig.NoFactorize is set (0 = factorization
// cannot apply to this plan).
func (cp *CompiledPlan) StarSuffixLen() int {
	d := cp.driver()
	return len(d.stages) - d.starSuffix
}

// addPipeline flattens the probe path of n into a pipeline, recursively
// compiling the build side of every hash join on the path first so that
// cp.pipes stays in valid execution order.
func (cp *CompiledPlan) addPipeline(n plan.Node, feeds *plan.HashJoin) error {
	scan, chain, err := flattenPipeline(n)
	if err != nil {
		return err
	}
	pipe := &compiledPipeline{node: n, scan: scan, feeds: feeds}
	width := 2
	for _, cn := range chain {
		switch op := cn.(type) {
		case *plan.Extend:
			pipe.stages = appendExtend(pipe.stages, op)
			width++
		case *plan.HashJoin:
			if err := cp.addPipeline(op.Build, op); err != nil {
				return err
			}
			spec := &probeSpec{op: op}
			buildOut := op.Build.Out()
			slotOf := make(map[int]int, len(op.Probe.Out()))
			for slot, v := range op.Probe.Out() {
				slotOf[v] = slot
			}
			for _, v := range op.JoinVertices {
				spec.probeSlots = append(spec.probeSlots, slotOf[v])
			}
			joinSet := make(map[int]bool, len(op.JoinVertices))
			for _, v := range op.JoinVertices {
				joinSet[v] = true
			}
			for slot, v := range buildOut {
				if !joinSet[v] {
					spec.appendIdx = append(spec.appendIdx, slot)
				}
			}
			pipe.stages = append(pipe.stages, spec)
			width += len(buildOut) - len(op.JoinVertices)
		}
	}
	pipe.outWidth = width
	// Trailing E/I operators of the probe path are trailing stages of the
	// flattened chain, so the plan-level star suffix maps directly onto a
	// stage index.
	pipe.starSuffix = len(pipe.stages) - plan.StarSuffixLen(n)
	if feeds != nil {
		buildOut := n.Out()
		slotOf := make(map[int]int, len(buildOut))
		for slot, v := range buildOut {
			slotOf[v] = slot
		}
		for _, v := range feeds.JoinVertices {
			pipe.keySlots = append(pipe.keySlots, slotOf[v])
		}
	}
	cp.pipes = append(cp.pipes, pipe)
	return nil
}

// appendExtend appends the compiled form of E/I operator op to stages,
// marking the stage before it as publishing when op inherits its
// extension set.
func appendExtend(stages []stageSpec, op *plan.Extend) []stageSpec {
	spec := &extendSpec{op: op, covered: op.Inherited(), sets: listsAreSets(op)}
	for _, d := range op.Descriptors {
		spec.slots = append(spec.slots, d.TupleIdx)
	}
	if spec.covered != 0 {
		// op.Child is an E/I operator, hence the stage just appended.
		stages[len(stages)-1].(*extendSpec).publishes = true
	}
	return append(stages, spec)
}

// flattenPipeline decomposes the probe path of n into its driving SCAN and
// the chain of operators applied above it (bottom-up order).
func flattenPipeline(n plan.Node) (*plan.Scan, []plan.Node, error) {
	var chain []plan.Node
	cur := n
	for {
		switch op := cur.(type) {
		case *plan.Scan:
			// chain currently holds top..bottom; reverse to bottom-up.
			for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
				chain[i], chain[j] = chain[j], chain[i]
			}
			return op, chain, nil
		case *plan.Extend:
			chain = append(chain, op)
			cur = op.Child
		case *plan.HashJoin:
			chain = append(chain, op)
			cur = op.Probe
		default:
			return nil, nil, fmt.Errorf("exec: unknown node %T", cur)
		}
	}
}
