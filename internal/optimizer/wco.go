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
// reaching it (line 1 of Algorithm 1). The full-query entries double as
// the complete WCO plan space.
func enumerateWCOBest(ctx *context) map[query.Mask]*planInfo {
	q := ctx.q
	best := map[query.Mask]*planInfo{}
	consider := func(mask query.Mask, node plan.Node, cost float64) {
		if cur, ok := best[mask]; !ok || cost < cur.cost {
			best[mask] = &planInfo{node: node, cost: cost}
		}
	}
	var rec func(mask query.Mask, node plan.Node, cost float64)
	rec = func(mask query.Mask, node plan.Node, cost float64) {
		consider(mask, node, cost)
		if mask == query.AllMask(q.NumVertices()) {
			return
		}
		for v := 0; v < q.NumVertices(); v++ {
			if mask&query.Bit(v) != 0 || len(q.EdgesBetween(mask, v)) == 0 {
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
		scan := plan.NewScan(q, e)
		mask := query.Bit(e.From) | query.Bit(e.To)
		rec(mask, scan, 0)
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
	opts = opts.withDefaults()
	if opts.Catalogue == nil {
		return nil, fmt.Errorf("optimizer: Options.Catalogue is required")
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := checkNoParallelEdges(q); err != nil {
		return nil, err
	}
	ctx := newContext(q, opts)
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
			if mask&query.Bit(v) != 0 || len(q.EdgesBetween(mask, v)) == 0 {
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
	if !anchorsTouch(c.q.EdgesBetween(mask, v), v, lastAdded) {
		cached = "c"
	}
	if sig, ok := c.sigMemo[extKey{mask, v}]; ok {
		return sig + cached
	}
	base, orig := c.q.Project(mask)
	newIdx := make(map[int]int, len(orig))
	for ni, ov := range orig {
		newIdx[ov] = ni
	}
	target := base.NumVertices()
	var edges []query.Edge
	for _, e := range c.q.EdgesBetween(mask, v) {
		if e.From == v {
			edges = append(edges, query.Edge{From: target, To: newIdx[e.To], Label: e.Label})
		} else {
			edges = append(edges, query.Edge{From: newIdx[e.From], To: target, Label: e.Label})
		}
	}
	key, _ := (catalogue.Extension{Base: base, Edges: edges, TargetLabel: c.q.Vertices[v].Label}).Key()
	c.sigMemo[extKey{mask, v}] = key
	return key + cached
}

func scanSignature(q *query.Graph, e query.Edge) string {
	return fmt.Sprintf("scan:%d/%d/%d", e.Label, q.Vertices[e.From].Label, q.Vertices[e.To].Label)
}
