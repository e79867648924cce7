// Package optimizer implements the paper's primary contribution: the
// cost-based dynamic-programming optimizer of Section 4 that enumerates
// WCO, binary-join and hybrid plans over connected vertex subsets of the
// query and ranks them in one currency — i-cost (Section 3.3) with the
// row costs of this engine's operators, the hash join's of Section 4.2
// among them — over the catalogue estimates of Section 5.
//
// One candidate step (extend, join) builds and prices every plan of the
// space, and the searches differ only in what they keep of it: the exact
// DP a row per subquery, the beam of Section 4.4 a row for BeamWidth
// subqueries a level, the plan spectrum (EnumeratePlans, Figure 7) the
// cheapest few per subquery. One walk over the WCO orderings seeds the
// DP, lists EnumerateWCOPlans and, from a plan's own source, the orderings
// of Section 6's adaptive router (Routes), priced in the same currency.
package optimizer

import (
	"fmt"
	"math"

	"graphflow/internal/catalogue"
	"graphflow/internal/plan"
	"graphflow/internal/query"
)

// Row costs in i-cost units (one unit: one adjacency-list element an E/I
// reads), from BenchmarkHashJoinBuildProbe (internal/exec): triangle ⋈
// triangle on LiveJournal(1), one worker, each phase net of its sides'
// own E/I time, per row, over that E/I time per unit (2.2–2.9 ns). Medians
// of 8 runs of 20 joins: a one-vertex key (key1) costs 28 units per build
// row and 22 per probe row, a two-vertex key (key2) 37 and 37. A key1
// probe row keeps the key of the row before it (its side's scan source),
// so it costs only its row; every key2 probe row looks its key up.
const (
	RowCost    = 22.0 // a row reaching an E/I or a probe: key1's probe row
	BuildCost  = 32.0 // a build row written to the table and sealed
	lookupCost = 15.0 // a hash-table lookup: key2's probe row less RowCost
)

// Options configures one optimization.
type Options struct {
	// Catalogue supplies the statistics; required.
	Catalogue *catalogue.Catalogue
	// WCOOnly restricts the plan space to WCO plans (the BiGJoin/earlier
	// Graphflow configuration used as a baseline).
	WCOOnly bool
	// CacheOblivious disables intersection-cache-aware costing (the
	// cache-oblivious optimizer discussed in Section 5.2).
	CacheOblivious bool
	// BeamWidth is the number of subqueries kept per level for larger
	// queries (Section 4.4); default 5.
	BeamWidth int
	// Deprecated: ignored. A factorized tail is always priced as the
	// factorized tier runs it.
	Factorized bool
}

// Optimize returns the lowest-estimated-cost plan for q (Algorithm 1).
func Optimize(q *query.Graph, opts Options) (*plan.Plan, error) {
	ctx, err := newContext(q, opts)
	if err != nil {
		return nil, err
	}
	var best planInfo
	if q.NumVertices() > fullEnumerationLimit {
		best = beamSearch(ctx)
	} else {
		best = dynamicProgram(ctx, &dpTable{row: make([]planInfo, ctx.full+1)})
	}
	if best.node == nil {
		return nil, fmt.Errorf("optimizer: no plan found")
	}
	p := &plan.Plan{
		Query:                q,
		Root:                 best.node,
		EstimatedCost:        best.cost,
		EstimatedCardinality: ctx.est.Cardinality(ctx.full),
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("optimizer: produced invalid plan: %w", err)
	}
	return p, nil
}

// EstimateCost exposes the cost model for a given externally-built plan:
// the sum of its operators' estimated costs (+Inf for an invalid query or
// options). Only tests call it: it is their independent pricer of the
// plans they build or the search returns.
func EstimateCost(q *query.Graph, p *plan.Plan, opts Options) float64 {
	ctx, err := newContext(q, opts)
	if err != nil {
		return math.Inf(1)
	}
	var rec func(n plan.Node) float64
	rec = func(n plan.Node) float64 {
		switch op := n.(type) {
		case *plan.Scan:
			return 0
		case *plan.Extend:
			return rec(op.Child) + ctx.extendCost(plan.CoverMask(op.Child), op)
		case *plan.HashJoin:
			return rec(op.Build) + rec(op.Probe) + ctx.joinCost(plan.CoverMask(op.Build), plan.CoverMask(op.Probe), op.Probe)
		default:
			return math.Inf(1)
		}
	}
	return ctx.tailCost(p.Root, rec(p.Root), nil)
}
