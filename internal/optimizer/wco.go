package optimizer

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"graphflow/internal/catalogue"
	"graphflow/internal/plan"
	"graphflow/internal/query"
)

// walkOrders walks every query-vertex ordering with connected prefixes —
// the WCO plan space, line 1 of Algorithm 1 — and calls visit with each
// prefix: its vertices in matching order, its mask, its plan and the
// plan's cost, a full plan's re-priced by its factorized tail.
func (c *context) walkOrders(visit func(order []int, mask query.Mask, node plan.Node, cost float64)) {
	var order [query.MaxVertices]int
	var opCosts [query.MaxVertices]float64 // the chain's operators', bottom-up
	var rec func(n int, mask query.Mask, node plan.Node, cost float64)
	rec = func(n int, mask query.Mask, node plan.Node, cost float64) {
		if mask == c.full {
			visit(order[:n], mask, node, c.tailCost(node, cost, opCosts[:n-2]))
			return
		}
		visit(order[:n], mask, node, cost)
		for v := 0; v < c.q.NumVertices(); v++ {
			if mask&query.Bit(v) != 0 || !c.adjacent(mask, v) {
				continue
			}
			ext, err := plan.NewExtend(c.q, node, v)
			if err != nil {
				continue
			}
			// extendCost reads the child's trailing chain off node, so the
			// last-added vertex needs no explicit threading.
			order[n], opCosts[n-2] = v, c.extendCost(mask, ext)
			rec(n+1, mask|query.Bit(v), ext, cost+opCosts[n-2])
		}
	}
	for _, e := range c.q.Edges {
		order[0], order[1] = e.From, e.To
		rec(2, query.Bit(e.From)|query.Bit(e.To), plan.NewScan(c.q, e), 0)
	}
}

// WCOPlan is one query-vertex ordering with its plan and estimated cost.
type WCOPlan struct {
	Order []int // query vertex indices in matching order
	Plan  *plan.Plan
	Cost  float64
}

// EnumerateWCOPlans returns every WCO plan (query vertex ordering with
// connected prefixes) for q, deduplicated so that orderings performing
// identical sequences of operations — equivalent under the query's
// symmetries, such as a2a3a1a4 vs a2a3a4a1 on the symmetric diamond-X —
// appear once (Section 3.2.3). Results are sorted by estimated cost.
func EnumerateWCOPlans(q *query.Graph, opts Options) ([]WCOPlan, error) {
	ctx, err := newContext(q, opts)
	if err != nil {
		return nil, err
	}
	// sigs[i] describes the prefix's i-th operator: a scan's labels, or
	// an E/I's labelled prefix pattern with the extension marked (the
	// rendered key; its packed bytes could hold the "|" separator) and
	// whether it can reuse the intersection cache. Orderings with
	// identical step sequences perform identical work.
	var sigs [query.MaxVertices]string
	seen := map[string]bool{}
	var out []WCOPlan
	ctx.walkOrders(func(order []int, mask query.Mask, node plan.Node, cost float64) {
		n := len(order)
		if scan, ok := node.(*plan.Scan); ok {
			sigs[0] = fmt.Sprintf("scan:%d/%d/%d", scan.EdgeLabel, scan.SrcLabel, scan.DstLabel)
		} else {
			v, cached := order[n-1], "-"
			if !ctx.adjacent(query.Bit(order[n-2]), v) {
				cached = "c"
			}
			sigs[n-2] = catalogue.ExtensionKey(q, mask&^query.Bit(v), v).String() + cached
		}
		if mask != ctx.full {
			return
		}
		if sig := strings.Join(sigs[:n-1], "|"); !seen[sig] {
			seen[sig] = true
			out = append(out, WCOPlan{
				Order: slices.Clone(order),
				Plan:  &plan.Plan{Query: q, Root: node, EstimatedCost: cost, EstimatedCardinality: ctx.cardinality(mask)},
				Cost:  cost,
			})
		}
	})
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost < out[j].Cost })
	return out, nil
}
