// Package adaptive is the policy of Section 6's adaptive evaluation: when
// a plan ends in a chain of two or more EXTEND/INTERSECT operators, the
// order the chain's query vertices are matched in is re-chosen while the
// query runs, from the adjacency-list sizes of the tuples that arrive, not
// the catalogue's averages. The optimizer lists and prices the chain's
// orderings in its own currency (optimizer.Routes) and adds them here; this
// package keeps one per first-operator class and picks among them for one
// tuple (Example 6.2's rule). It runs nothing: internal/exec places a
// routing stage where the chain begins and pushes each run of tuples into
// the E/I stages of the ordering Pick names.
package adaptive

import (
	"math"
	"slices"

	"graphflow/internal/graph"
	"graphflow/internal/plan"
)

// MaxOrderings caps the orderings listed per chain: cliques have
// factorially many near-identical ones (Section 8.3's Q6 note).
const MaxOrderings = 48

// Routes is the adaptive part of one plan: the orderings a tuple of its
// source can take and what Pick prices them by. Filled by Add, then
// immutable.
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

// firstStep is what Pick reads of one ordering: its first operator's
// lists as indices into Routes.lists, 1 / the catalogue's size of each (0
// for one it expects empty), and the price of the rest per source tuple.
type firstStep struct {
	lists  []int
	invEst []float64
	rest   float64
}

// Add offers r the ordering chain of the plan's trailing E/I operators:
// sizes are the catalogue's sizes of its first operator's lists, in
// descriptor order, and rest is the price of everything after those lists
// per source tuple. The first ordering added is the plan's own.
//
// Re-estimation replaces only the first operator's statistics, so
// orderings whose first operators read the same lists with the same
// estimates — a clique's symmetric ones — differ only in their rest, and
// only the cheapest is kept beside the plan's own. That bounds Pick's work
// and the compiled sub-chains by the chain's length.
func (r *Routes) Add(chain []*plan.Extend, sizes []float64, rest float64) {
	first := chain[0]
	f := firstStep{invEst: make([]float64, len(first.Descriptors)), rest: rest}
	for j, d := range first.Descriptors {
		d.TupleIdx = intern(&r.Slots, d.TupleIdx)
		f.lists = append(f.lists, intern(&r.lists, list{d, first.TargetLabel}))
		if sizes[j] > 0 {
			f.invEst[j] = 1 / sizes[j]
		}
	}
	// The last kept ordering priced like this one: the cheapest so far,
	// or the plan's own, which keeps index 0 even when it is not.
	at := len(r.firsts) - 1
	for at >= 0 && !(slices.Equal(r.firsts[at].lists, f.lists) && slices.Equal(r.firsts[at].invEst, f.invEst)) {
		at--
	}
	if at > 0 && f.rest < r.firsts[at].rest {
		r.Chains[at], r.firsts[at] = chain, f
	} else if at < 0 || f.rest < r.firsts[at].rest {
		r.Chains, r.firsts = append(r.Chains, chain), append(r.firsts, f)
	}
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
// price for a source tuple presenting key on r.Slots; ties go to the
// lowest index, so the plan's own ordering wins them. Example 6.2's rule:
// the first operator's lists cost their actual sizes (Equation 1), and
// the rest keeps its estimate rescaled by the actual/estimated size ratios
// of those lists. sizes is the caller's: it holds the list sizes its
// previous call measured, and changed marks the key slots whose vertex
// differs since — only their lists are measured again (every bit set on a
// first call).
func (r *Routes) Pick(g graph.View, key []graph.VertexID, changed uint32, sizes []float64) int {
	for i := range r.lists {
		if l := &r.lists[i]; changed&(1<<uint(l.TupleIdx)) != 0 {
			sizes[i] = float64(g.Degree(key[l.TupleIdx], l.Dir, l.EdgeLabel, l.target))
		}
	}
	best, bestCost := 0, math.Inf(1)
	for i := range r.firsts {
		f := &r.firsts[i]
		lists, rest := 0.0, f.rest
		for j, l := range f.lists {
			lists += sizes[l]
			if inv := f.invEst[j]; inv > 0 {
				rest *= sizes[l] * inv
			} else if sizes[l] == 0 {
				rest = 0
			}
		}
		if cost := lists + rest; cost < bestCost {
			best, bestCost = i, cost
		}
	}
	return best
}
