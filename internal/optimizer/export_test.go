package optimizer

import (
	"math"
	"testing"

	"graphflow/internal/catalogue"
	"graphflow/internal/plan"
	"graphflow/internal/query"
)

// EstimateCost exposes the cost model for a given externally-built plan:
// the sum of its operators' estimated costs (+Inf for an invalid query or
// options). It is the tests' independent pricer of the plans they build
// or the search returns.
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

// CheckGolden lets the external test package record and compare goldens
// under the same -update flag.
func CheckGolden(t *testing.T, name, got string) { t.Helper(); checkGolden(t, name, got) }

// GoldenCatalogue returns the catalogue of the golden graph name
// ("epinions" or "amazon").
func GoldenCatalogue(name string) *catalogue.Catalogue {
	for _, ds := range goldenSets() {
		if ds.name == name {
			return ds.cat
		}
	}
	return nil
}

// offerCounter is the exact DP's table counting the candidates offered
// to it. With every set it is not seeded, so extend puts an E/I on every
// kept plan, whatever built it: the DP before keeper.seeded.
type offerCounter struct {
	dpTable
	every  bool
	offers int
}

func (t *offerCounter) wants(mask query.Mask, cost float64) bool {
	t.offers++
	return t.dpTable.wants(mask, cost)
}

func (t *offerCounter) seeded() bool { return !t.every }

// PlanDP runs the exact DP on q and returns its pick, the pick's cost and
// how many candidates the DP offered its table; every extends every kept
// plan (see offerCounter).
func PlanDP(q *query.Graph, opts Options, every bool) (*plan.Plan, float64, int, error) {
	ctx, err := newContext(q, opts)
	if err != nil {
		return nil, 0, 0, err
	}
	t := &offerCounter{dpTable: dpTable{row: make([]planInfo, ctx.full+1)}, every: every}
	best := dynamicProgram(ctx, t)
	return &plan.Plan{Query: q, Root: best.node}, best.cost, t.offers, nil
}
