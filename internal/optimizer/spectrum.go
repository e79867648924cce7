package optimizer

import (
	"fmt"
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
	s := &spectrum{kept: map[query.Mask][]planInfo{}, seen: map[string]bool{}}
	for _, e := range q.Edges {
		s.keep(query.Bit(e.From)|query.Bit(e.To), planInfo{node: plan.NewScan(q, e)})
	}
	for _, mask := range q.ConnectedSubsets(3) {
		ctx.grow(s, mask)
		s.kept[mask] = cheapest(s.kept[mask], maxPerMask)
	}

	autos := q.Automorphisms()
	finalSeen := map[string]bool{}
	var result []SpectrumPlan
	for _, c := range s.kept[ctx.full] {
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
		p := &plan.Plan{Query: q, Root: c.node, EstimatedCost: c.cost, EstimatedCardinality: ctx.est.Cardinality(ctx.full)}
		result = append(result, SpectrumPlan{Plan: p, Cost: c.cost, Kind: p.Kind()})
	}
	return result, nil
}

// spectrum is EnumeratePlans' keeper: every distinct candidate of the
// mask being grown, cut to the cheapest few once it is grown. A plan's
// signature names the vertices it covers, so one set serves every mask.
type spectrum struct {
	kept map[query.Mask][]planInfo
	seen map[string]bool // signatures of the candidates offered
}

func (s *spectrum) plans(mask query.Mask) []planInfo { return s.kept[mask] }

func (s *spectrum) wants(query.Mask, float64) bool { return true }

func (s *spectrum) seeded() bool { return false }

func (s *spectrum) keep(mask query.Mask, cand planInfo) {
	if sig := planSignature(cand.node, nil); !s.seen[sig] {
		s.seen[sig] = true
		s.kept[mask] = append(s.kept[mask], cand)
	}
}

// cheapest keeps the limit cheapest plans of grown, cheapest first, but
// preserves operator diversity: join-rooted subplans usually cost more
// than WCO chains, yet they are what the hybrid region of the spectrum is
// made of (e.g. the Figure 1d 6-cycle plan needs a join of two paths to
// survive here), so up to a third of the places go to the cheapest joins.
func cheapest(grown []planInfo, limit int) []planInfo {
	sort.SliceStable(grown, func(i, j int) bool { return grown[i].cost < grown[j].cost })
	if len(grown) <= limit {
		return grown
	}
	keep := make([]planInfo, 0, limit)
	for _, c := range grown {
		if _, isJ := c.node.(*plan.HashJoin); isJ && len(keep) < limit/3 {
			keep = append(keep, c)
		}
	}
	for _, c := range grown {
		if _, isJ := c.node.(*plan.HashJoin); !isJ && len(keep) < limit {
			keep = append(keep, c)
		}
	}
	sort.SliceStable(keep, func(i, j int) bool { return keep[i].cost < keep[j].cost })
	return keep
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
