package optimizer

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"graphflow/internal/adaptive"
	"graphflow/internal/catalogue"
	"graphflow/internal/plan"
	"graphflow/internal/query"
)

// walkOrders walks, from each plan of sources — every query edge's SCAN
// when nil: the WCO plan space, line 1 of Algorithm 1 — every ordering of
// the query vertices it leaves with connected prefixes, and calls visit
// with each prefix: its vertices in matching order, its mask, its plan and
// the plan's cost over its source, a full plan's re-priced by its
// factorized tail. visit returning false ends the walk.
//
// Each prefix is priced on the walk's scratch operator for its depth, so
// node holds only until visit returns: a visitor that keeps the plan
// keeps own(), a copy that shares the copies of its own prefixes made
// since they were last filled.
func (c *context) walkOrders(sources []plan.Node, visit func(order []int, mask query.Mask, node plan.Node, cost float64, own func() plan.Node) bool) {
	if sources == nil {
		sources = make([]plan.Node, len(c.q.Edges))
		for i, e := range c.q.Edges {
			sources[i] = plan.NewScan(c.q, e)
		}
	}
	w := &walk{c: c, visit: visit, at: make([]depth, c.q.NumVertices())}
	w.own = func() plan.Node { return w.copyOut(w.n) }
	for _, w.source = range sources {
		w.from = copy(w.order[:], w.source.Out())
		if !w.rec(w.from, plan.CoverMask(w.source), w.source, 0) {
			return
		}
	}
}

// walk is one walkOrders: the ordering it is on and what it keeps per
// depth.
type walk struct {
	c       *context
	visit   func(order []int, mask query.Mask, node plan.Node, cost float64, own func() plan.Node) bool
	own     func() plan.Node // copyOut of the prefix being visited
	source  plan.Node
	from, n int // source's vertex count; the visited prefix's
	order   [query.MaxVertices]int
	opCosts [query.MaxVertices]float64 // opCosts[n]: the operator adding order[n]
	at      []depth                    // per query vertex
}

// depth n of a walk: the scratch operator adding order[n], and the copy
// of the prefix through it made since op was last filled (nil if none).
type depth struct {
	op    plan.Extend
	owned plan.Node
}

func (w *walk) rec(n int, mask query.Mask, node plan.Node, cost float64) bool {
	c := w.c
	w.n = n
	if mask == c.full {
		return w.visit(w.order[:n], mask, node, c.tailCost(node, cost, w.opCosts[:n]), w.own)
	}
	if !w.visit(w.order[:n], mask, node, cost, w.own) {
		return false
	}
	at := &w.at[n]
	op := &at.op
	for v := 0; v < c.q.NumVertices(); v++ {
		if mask&query.Bit(v) != 0 || !c.adjacent(mask, v) || plan.FillExtend(op, c.q, node, v) != nil {
			continue
		}
		at.owned = nil
		// extendCost reads the child's trailing chain off node, so the
		// last-added vertex needs no explicit threading.
		w.order[n], w.opCosts[n] = v, c.extendCost(mask, op)
		if !w.rec(n+1, mask|query.Bit(v), op, cost+w.opCosts[n]) {
			return false
		}
	}
	return true
}

// copyOut returns the prefix of n vertices as a plan that outlives the
// walk: the source itself, or a copy of its scratch operators.
func (w *walk) copyOut(n int) plan.Node {
	if n == w.from {
		return w.source
	}
	at := &w.at[n-1]
	if at.owned == nil {
		at.owned = at.op.CopyOnto(w.copyOut(n - 1))
	}
	return at.owned
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
	ctx.walkOrders(nil, func(order []int, mask query.Mask, node plan.Node, cost float64, own func() plan.Node) bool {
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
			return true
		}
		if sig := strings.Join(sigs[:n-1], "|"); !seen[sig] {
			seen[sig] = true
			out = append(out, WCOPlan{
				Order: slices.Clone(order),
				Plan:  &plan.Plan{Query: q, Root: own(), EstimatedCost: cost, EstimatedCardinality: ctx.est.Cardinality(mask)},
				Cost:  cost,
			})
		}
		return true
	})
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost < out[j].Cost })
	return out, nil
}

// Routes returns the orderings Section 6's adaptive router may match p's
// trailing E/I chain in: walkOrders from the chain's source lists at most
// maxOrderings, the plan's own first, priced as Optimize prices them but
// with no PrefixTwin (see context.routing). nil when there is nothing to
// choose between: a chain of one operator, or one ordering left.
func Routes(p *plan.Plan, cat *catalogue.Catalogue, maxOrderings int) *adaptive.Routes {
	own := chainOf(p.Root)
	c, err := newContext(p.Query, Options{Catalogue: cat})
	if len(own) < 2 || maxOrderings < 2 || err != nil {
		return nil
	}
	c.routing = true
	r, n := &adaptive.Routes{}, 1
	c.addRoute(r, own)
	c.walkOrders([]plan.Node{own[0].Child}, func(order []int, mask query.Mask, _ plan.Node, _ float64, copyOut func() plan.Node) bool {
		if mask != c.full || slices.EqualFunc(order[len(order)-len(own):], own, func(v int, op *plan.Extend) bool { return v == op.TargetVertex }) {
			return true
		}
		c.addRoute(r, chainOf(copyOut()))
		n++
		return n < maxOrderings
	})
	if len(r.Chains) < 2 {
		return nil
	}
	return r
}

// chainOf returns the E/I operators that end at root, bottom-up.
func chainOf(root plan.Node) []*plan.Extend {
	var chain []*plan.Extend
	for ext, ok := root.(*plan.Extend); ok; ext, ok = ext.Child.(*plan.Extend) {
		chain = append(chain, ext)
	}
	slices.Reverse(chain)
	return chain
}

// addRoute adds chain to r with the catalogue's sizes of its first
// operator's lists and the price of everything after them per source row:
// the later operators and the tail (a component holding the first
// operator priced whole) per row the first outputs, times its µ, which
// Pick rescales. The first operator's row cost is every ordering's.
func (c *context) addRoute(r *adaptive.Routes, chain []*plan.Extend) {
	var costs [query.MaxVertices]float64 // chain order; the first's stays 0
	rest := 0.0
	for s, op := range chain[1:] {
		costs[s+1] = c.extendCost(plan.CoverMask(op.Child), op)
		rest += costs[s+1]
	}
	rest = c.tailCost(chain[len(chain)-1], rest, costs[:len(chain)])
	base, v := plan.CoverMask(chain[0].Child), chain[0].TargetVertex
	first := c.est.Extension(base, v)
	if card := c.est.Cardinality(base | query.Bit(v)); card > 0 {
		rest = rest / card * first.Mu
	}
	r.Add(chain, first.Sizes, rest)
}
