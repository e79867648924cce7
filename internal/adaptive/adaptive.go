// Package adaptive is the policy of Section 6's adaptive evaluation: when
// a plan ends in a chain of two or more EXTEND/INTERSECT operators, the
// order the chain's query vertices are matched in is re-chosen while the
// query runs, from the adjacency-list sizes of the tuples that arrive, not
// the catalogue's averages. The package enumerates the chain's candidate
// orderings and prices them for one tuple (Example 6.2's rule); it runs
// nothing: internal/exec places a routing stage where the chain begins and
// pushes each run of tuples into the E/I stages of the ordering Pick names.
package adaptive

import (
	"math"
	"slices"

	"graphflow/internal/catalogue"
	"graphflow/internal/graph"
	"graphflow/internal/plan"
	"graphflow/internal/query"
)

// MaxOrderings caps the orderings enumerated per chain: cliques have
// factorially many near-identical ones (Section 8.3's Q6 note).
const MaxOrderings = 48

// Routes is the adaptive part of one plan: the orderings a tuple of its
// source can take and what Pick prices them by. Immutable once enumerated.
type Routes struct {
	// Chains holds each ordering as E/I operators, bottom-up over the
	// plan's source; Chains[0] is the plan's own chain.
	Chains [][]*plan.Extend
	// Slots are the source-tuple slots some ordering's first operator
	// reads — the route key: tuples that agree on them are priced alike.
	Slots []int

	// lists are the distinct adjacency lists the first operators read;
	// orderings that share one share its measurement.
	lists  []list
	firsts []firstStep // parallel to Chains
}

// list names one adjacency list of a source tuple: a first operator's
// descriptor, its TupleIdx re-based to index Slots, and target label.
type list struct {
	plan.Descriptor
	target graph.Label
}

// firstStep is what re-estimation reads of one ordering: its first
// operator, priced per tuple, and its later operators, priced once.
type firstStep struct {
	lists []int // the operator's descriptors, as indices into Routes.lists
	// invEst is 1 / the catalogue's average size of each of those lists (0
	// for one it expects empty); rest the catalogue i-cost of the later
	// operators per input tuple: µ_0 · Σ_{s≥1} icost_s · Π_{1≤j<s} µ_j.
	invEst []float64
	rest   float64
}

// Enumerate returns the candidate orderings of p's trailing E/I chain, at
// most maxOrderings of them enumerated (the plan's own first), priced
// against cat; nil when there is nothing to choose between — a chain
// shorter than two operators, or a single candidate.
//
// Re-estimation replaces only the first operator's statistics. Orderings
// whose first operators read the same lists with the same estimates —
// those that start with the same query vertex, a clique's symmetric ones —
// are therefore priced alike for every tuple but for what the catalogue
// says of their later operators, and only the cheapest of them is kept
// (beside the plan's own). That bounds Pick's work and the compiled
// sub-chains by the chain's length; a clique has nothing left to adapt.
func Enumerate(p *plan.Plan, cat *catalogue.Catalogue, maxOrderings int) *Routes {
	// Peel the chain off the root: bottom-up, over a SCAN or a HASH-JOIN.
	var chain []*plan.Extend
	source := p.Root
	for ext, ok := source.(*plan.Extend); ok; ext, ok = source.(*plan.Extend) {
		chain = append(chain, ext)
		source = ext.Child
	}
	slices.Reverse(chain)
	q, base := p.Query, plan.CoverMask(source)
	var all [][]*plan.Extend
	var rec func(node plan.Node, ops []*plan.Extend, mask query.Mask)
	rec = func(node plan.Node, ops []*plan.Extend, mask query.Mask) {
		if len(chain) < 2 || len(all) >= maxOrderings {
			return
		}
		if len(ops) == len(chain) {
			all = append(all, slices.Clone(ops))
			return
		}
		for _, c := range chain {
			v := c.TargetVertex
			if mask&query.Bit(v) != 0 || q.NumEdgesBetween(mask, v) == 0 {
				continue
			}
			// Where an ordering follows the plan, it shares the plan's operators.
			ext := chain[len(ops)]
			if ext.TargetVertex != v || ext.Child != node {
				ext, _ = plan.NewExtend(q, node, v) // cannot fail: v is unmatched and adjacent to mask
			}
			rec(ext, append(ops, ext), mask|query.Bit(v))
		}
	}
	rec(source, nil, base)
	r := &Routes{}
	for _, ops := range all {
		f := r.price(q, cat, base, ops)
		// The last kept ordering priced like this one: the cheapest so far,
		// or the plan's own, which keeps index 0 even when it is not.
		at := len(r.firsts) - 1
		for at >= 0 && !(slices.Equal(r.firsts[at].lists, f.lists) && slices.Equal(r.firsts[at].invEst, f.invEst)) {
			at--
		}
		if at > 0 && f.rest < r.firsts[at].rest {
			r.Chains[at], r.firsts[at] = ops, f
		} else if at < 0 || f.rest < r.firsts[at].rest {
			r.Chains, r.firsts = append(r.Chains, ops), append(r.firsts, f)
		}
	}
	if len(r.Chains) < 2 {
		return nil
	}
	return r
}

// price fills in what Pick reads of ordering ops: its first operator's
// lists (entered into r.Slots and r.lists) and the catalogue's estimates.
func (r *Routes) price(q *query.Graph, cat *catalogue.Catalogue, mask query.Mask, ops []*plan.Extend) firstStep {
	first := ops[0]
	f := firstStep{invEst: make([]float64, len(first.Descriptors))}
	for _, d := range first.Descriptors {
		d.TupleIdx = intern(&r.Slots, d.TupleIdx)
		f.lists = append(f.lists, intern(&r.lists, list{d, first.TargetLabel}))
	}
	card, _ := cat.ExtendStats(q, mask, first.TargetVertex, f.invEst)
	for j, est := range f.invEst {
		if est > 0 {
			f.invEst[j] = 1 / est
		}
	}
	for s, op := range ops[1:] {
		mask |= query.Bit(ops[s].TargetVertex)
		sizes := make([]float64, len(op.Descriptors))
		mu, _ := cat.ExtendStats(q, mask, op.TargetVertex, sizes)
		f.rest += card * catalogue.EffectiveICost(sizes)
		card *= mu
	}
	return f
}

// intern returns v's index in *s, appending it when it is new.
func intern[T comparable](s *[]T, v T) int {
	if i := slices.Index(*s, v); i >= 0 {
		return i
	}
	*s = append(*s, v)
	return len(*s) - 1
}

// Lists is the length of Pick's sizes argument.
func (r *Routes) Lists() int { return len(r.lists) }

// Pick returns the index of the ordering with the lowest re-estimated
// i-cost for a source tuple presenting key on r.Slots; ties go to the
// lowest index, so the plan's own ordering wins them. Example 6.2's rule:
// the first operator's list sizes are the tuple's actual ones, its µ is
// rescaled by the actual/estimated size ratios, the later operators keep
// their catalogue estimates — all priced through Equation 1's i-cost. sizes is the caller's: it holds
// the list sizes its previous call measured, and changed marks the key
// slots whose vertex differs since — only their lists are measured again
// (every bit set on a first call).
func (r *Routes) Pick(g graph.View, key []graph.VertexID, changed uint32, sizes []float64) int {
	for i := range r.lists {
		if l := &r.lists[i]; changed&(1<<uint(l.TupleIdx)) != 0 {
			sizes[i] = float64(g.Degree(key[l.TupleIdx], l.Dir, l.EdgeLabel, l.target))
		}
	}
	best, bestCost := 0, math.Inf(1)
	var buf [8]float64
	for i := range r.firsts {
		f := &r.firsts[i]
		actual, rest := buf[:0], f.rest
		for j, l := range f.lists {
			actual = append(actual, sizes[l])
			if inv := f.invEst[j]; inv > 0 {
				rest *= sizes[l] * inv
			} else if sizes[l] == 0 {
				rest = 0
			}
		}
		if cost := catalogue.EffectiveICost(actual) + rest; cost < bestCost {
			best, bestCost = i, cost
		}
	}
	return best
}
