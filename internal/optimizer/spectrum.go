package optimizer

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"graphflow/internal/plan"
	"graphflow/internal/query"
)

// SpectrumPlan is one plan of a query's plan spectrum (Figure 7): the plan,
// its estimated cost, and its class ("wco", "bj", "hybrid").
type SpectrumPlan struct {
	Plan *plan.Plan
	Cost float64
	Kind string
}

// EnumeratePlans enumerates the query's plan spectrum: WCO, BJ and hybrid
// plans from the full plan space of Section 4.1, deduplicated under the
// query's automorphisms, with at most maxPerMask distinct subplans kept per
// subquery (cheapest first) to bound combinatorial growth. maxPerMask <= 0
// selects a default of 24.
func EnumeratePlans(q *query.Graph, opts Options, maxPerMask int) ([]SpectrumPlan, error) {
	ctx, err := newContext(q, opts)
	if err != nil {
		return nil, err
	}
	if maxPerMask <= 0 {
		maxPerMask = 24
	}

	type cand struct {
		node plan.Node
		cost float64
	}
	memo := map[query.Mask][]cand{}

	var plansFor func(mask query.Mask) []cand
	plansFor = func(mask query.Mask) []cand {
		if got, ok := memo[mask]; ok {
			return got
		}
		var out []cand
		seen := map[string]bool{}
		add := func(n plan.Node, cost float64) {
			sig := planSignature(n, nil)
			if seen[sig] {
				return
			}
			seen[sig] = true
			out = append(out, cand{n, cost})
		}
		if bits.OnesCount32(mask) == 2 {
			for _, e := range q.EdgesWithin(mask) {
				add(plan.NewScan(q, e), 0)
			}
		} else {
			// E/I extensions.
			for v := 0; v < q.NumVertices(); v++ {
				if mask&query.Bit(v) == 0 {
					continue
				}
				rest := mask &^ query.Bit(v)
				if !q.IsConnected(rest) || !ctx.adjacent(rest, v) {
					continue
				}
				for _, child := range plansFor(rest) {
					ext, err := plan.NewExtend(q, child.node, v)
					if err != nil {
						continue
					}
					cost := child.cost + ctx.extendCost(rest, ext)
					if mask == query.AllMask(q.NumVertices()) {
						cost = ctx.tailCost(ext, cost, nil)
					}
					add(ext, cost)
				}
			}
			// Binary joins.
			lowest := query.Mask(1) << uint(bits.TrailingZeros32(mask))
			for c1 := mask; c1 > 0; c1 = (c1 - 1) & mask {
				if c1&lowest == 0 || c1 == mask || !q.IsConnected(c1) {
					continue
				}
				rest := mask &^ c1
				if rest == 0 {
					continue
				}
				for s := c1; ; s = (s - 1) & c1 {
					c2 := rest | s
					if s != 0 && c2 != mask && q.IsConnected(c2) {
						if ctx.validJoinSplit(c1, c2) {
							b, p := c1, c2
							if ctx.cardinality(c2) < ctx.cardinality(c1) {
								b, p = c2, c1
							}
							for _, bc := range plansFor(b) {
								for _, pc := range plansFor(p) {
									hj, err := plan.NewHashJoin(bc.node, pc.node)
									if err != nil {
										continue
									}
									add(hj, bc.cost+pc.cost+ctx.joinCost(b, p, pc.node))
								}
							}
						}
					}
					if s == 0 {
						break
					}
				}
			}
		}
		sort.SliceStable(out, func(i, j int) bool { return out[i].cost < out[j].cost })
		if len(out) > maxPerMask {
			// Keep the cheapest plans but preserve operator diversity:
			// join-rooted subplans usually cost more than WCO chains, yet
			// they are what the hybrid region of the spectrum is made of
			// (e.g. the Figure 1d 6-cycle plan needs a join of two paths to
			// survive here).
			keep := out[:0:0]
			joinQuota := maxPerMask / 3
			var joins, others []cand
			for _, c := range out {
				if _, isJ := c.node.(*plan.HashJoin); isJ {
					joins = append(joins, c)
				} else {
					others = append(others, c)
				}
			}
			if len(joins) > joinQuota {
				joins = joins[:joinQuota]
			}
			keep = append(keep, joins...)
			for _, c := range others {
				if len(keep) >= maxPerMask {
					break
				}
				keep = append(keep, c)
			}
			sort.SliceStable(keep, func(i, j int) bool { return keep[i].cost < keep[j].cost })
			out = keep
		}
		memo[mask] = out
		return out
	}

	full := query.AllMask(q.NumVertices())
	autos := q.Automorphisms()
	finalSeen := map[string]bool{}
	var result []SpectrumPlan
	for _, c := range plansFor(full) {
		// Deduplicate under query automorphisms: the minimum signature over
		// all relabelings identifies plans doing identical work on
		// symmetric queries.
		minSig := ""
		for _, pi := range autos {
			sig := planSignature(c.node, pi)
			if minSig == "" || sig < minSig {
				minSig = sig
			}
		}
		if finalSeen[minSig] {
			continue
		}
		finalSeen[minSig] = true
		p := &plan.Plan{Query: q, Root: c.node, EstimatedCost: c.cost, EstimatedCardinality: ctx.cardinality(full)}
		result = append(result, SpectrumPlan{Plan: p, Cost: c.cost, Kind: p.Kind()})
	}
	sort.SliceStable(result, func(i, j int) bool { return result[i].Cost < result[j].Cost })
	return result, nil
}

// planSignature serialises the plan tree with query vertices optionally
// relabelled through pi (pi[v] = image of v; nil means identity).
func planSignature(n plan.Node, pi []int) string {
	m := func(v int) int {
		if pi == nil {
			return v
		}
		return pi[v]
	}
	var rec func(n plan.Node) string
	rec = func(n plan.Node) string {
		switch op := n.(type) {
		case *plan.Scan:
			return fmt.Sprintf("S(%d>%d:%d)", m(op.SrcVertex), m(op.DstVertex), op.EdgeLabel)
		case *plan.Extend:
			childOut := op.Child.Out()
			ds := make([]string, len(op.Descriptors))
			for i, d := range op.Descriptors {
				ds[i] = fmt.Sprintf("%d%s%d", m(childOut[d.TupleIdx]), d.Dir, d.EdgeLabel)
			}
			sort.Strings(ds)
			return fmt.Sprintf("E(%d<[%s];%s)", m(op.TargetVertex), strings.Join(ds, ","), rec(op.Child))
		case *plan.HashJoin:
			return fmt.Sprintf("J(%s;%s)", rec(op.Build), rec(op.Probe))
		default:
			return "?"
		}
	}
	return rec(n)
}
