package optimizer

import (
	"fmt"
	"sort"
	"strings"

	"graphflow/internal/catalogue"
	"graphflow/internal/plan"
	"graphflow/internal/query"
)

// enumerateWCOBest walks every query vertex ordering with connected
// prefixes and records, for every prefix mask, the cheapest WCO plan
// reaching it (line 1 of Algorithm 1), in a table indexed by mask. The
// full-query row doubles as the complete WCO plan space.
func enumerateWCOBest(ctx *context) []planInfo {
	q := ctx.q
	m := q.NumVertices()
	full := query.AllMask(m)
	best := make([]planInfo, 1<<uint(m))
	var rec func(mask query.Mask, node plan.Node, cost float64)
	rec = func(mask query.Mask, node plan.Node, cost float64) {
		if best[mask].beats(cost) {
			best[mask] = planInfo{node: node, cost: cost}
		}
		if mask == full {
			return
		}
		for v := 0; v < m; v++ {
			if mask&query.Bit(v) != 0 || !ctx.adjacent(mask, v) {
				continue
			}
			ext, err := plan.NewExtend(q, node, v)
			if err != nil {
				continue
			}
			// extendCost reads the child's trailing chain off node, so the
			// last-added vertex needs no explicit threading.
			rec(mask|query.Bit(v), ext, cost+ctx.extendCost(mask, ext))
		}
	}
	for _, e := range q.Edges {
		rec(query.Bit(e.From)|query.Bit(e.To), plan.NewScan(q, e), 0)
	}
	return best
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
	seen := map[string]bool{}
	var out []WCOPlan

	var rec func(order []int, mask query.Mask, lastAdded int, node plan.Node, cost float64, sig []string)
	rec = func(order []int, mask query.Mask, lastAdded int, node plan.Node, cost float64, sig []string) {
		if mask == query.AllMask(q.NumVertices()) {
			signature := strings.Join(sig, "|")
			if !seen[signature] {
				seen[signature] = true
				out = append(out, WCOPlan{
					Order: append([]int(nil), order...),
					Plan:  &plan.Plan{Query: q, Root: node, EstimatedCost: cost, EstimatedCardinality: ctx.cardinality(mask)},
					Cost:  cost,
				})
			}
			return
		}
		for v := 0; v < q.NumVertices(); v++ {
			if mask&query.Bit(v) != 0 || !ctx.adjacent(mask, v) {
				continue
			}
			ext, err := plan.NewExtend(q, node, v)
			if err != nil {
				continue
			}
			stepSig := ctx.stepSignature(mask, v, lastAdded)
			rec(append(order, v), mask|query.Bit(v), v, ext,
				cost+ctx.extendCost(mask, ext), append(sig, stepSig))
		}
	}
	for _, e := range q.Edges {
		scan := plan.NewScan(q, e)
		mask := query.Bit(e.From) | query.Bit(e.To)
		scanSig := scanSignature(q, e)
		rec([]int{e.From, e.To}, mask, e.To, scan, 0, []string{scanSig})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost < out[j].Cost })
	return out, nil
}

// stepSignature canonically describes one E/I step: the labelled prefix
// pattern with the extension marked, plus whether the step can reuse the
// intersection cache. Orderings with identical step sequences perform
// identical work.
func (c *context) stepSignature(mask query.Mask, v, lastAdded int) string {
	cached := "-"
	if !c.adjacent(query.Bit(lastAdded), v) {
		cached = "c"
	}
	if sig, ok := c.sigMemo[newExtKey(mask, v)]; ok {
		return sig + cached
	}
	// The rendered key, not its packed bytes: signatures are joined with a
	// separator the bytes could contain.
	key := catalogue.ExtensionKey(c.q, mask, v).String()
	c.sigMemo[newExtKey(mask, v)] = key
	return key + cached
}

func scanSignature(q *query.Graph, e query.Edge) string {
	return fmt.Sprintf("scan:%d/%d/%d", e.Label, q.Vertices[e.From].Label, q.Vertices[e.To].Label)
}
