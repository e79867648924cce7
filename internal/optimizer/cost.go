package optimizer

import (
	"fmt"
	"math"
	"math/bits"

	"graphflow/internal/catalogue"
	"graphflow/internal/plan"
	"graphflow/internal/query"
)

// context carries the per-query state of one optimization: the catalogue,
// the options, the query's neighbour sets, and memoized cardinality and
// extension-statistics caches. Nothing in it outlives the Optimize call.
type context struct {
	q    *query.Graph
	opts Options
	full query.Mask // every vertex of q

	// nbr[v] is the set of query vertices sharing an edge with v: the
	// adjacency and join-split tests of the search read it instead of
	// rescanning (and copying out of) the edge list.
	nbr      []query.Mask
	card     map[query.Mask]float64
	extStats map[extKey]extStat
	// tail is tailCost's scratch.
	tail plan.Tail
}

// extKey packs (mask, v) — extending the subquery on mask by vertex v —
// into one word: v < 32 takes the low five bits.
type extKey uint64

func newExtKey(mask query.Mask, v int) extKey { return extKey(mask)<<5 | extKey(v) }

// extStat holds the catalogue estimates for extending mask by v: the
// average list size per query edge between mask and v, in q.Edges order
// (the order plan.NewExtend derives descriptors in), and µ.
type extStat struct {
	sizes []float64
	mu    float64
}

// newContext validates q, which may have no parallel edges, and opts and
// starts an optimization of q under opts with their defaults applied.
func newContext(q *query.Graph, opts Options) (*context, error) {
	if opts.Catalogue == nil {
		return nil, fmt.Errorf("optimizer: Options.Catalogue is required")
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if opts.BeamWidth == 0 {
		opts.BeamWidth = 5
	}
	c := &context{
		q:        q,
		opts:     opts,
		full:     query.AllMask(q.NumVertices()),
		nbr:      make([]query.Mask, q.NumVertices()),
		card:     map[query.Mask]float64{},
		extStats: map[extKey]extStat{},
	}
	for _, e := range q.Edges {
		// A SCAN matches exactly one query edge and the engine has no
		// residual-filter operator (the paper's queries have none either).
		if c.nbr[e.From]&query.Bit(e.To) != 0 {
			return nil, fmt.Errorf("optimizer: parallel edges between a%d and a%d are not supported", min(e.From, e.To)+1, max(e.From, e.To)+1)
		}
		c.nbr[e.From] |= query.Bit(e.To)
		c.nbr[e.To] |= query.Bit(e.From)
	}
	return c, nil
}

// adjacent reports whether a query edge connects v to a vertex of mask.
func (c *context) adjacent(mask query.Mask, v int) bool { return c.nbr[v]&mask != 0 }

// extension returns the memoized catalogue statistics for extending the
// subquery on mask by query vertex v.
func (c *context) extension(mask query.Mask, v int) extStat {
	key := newExtKey(mask, v)
	if st, ok := c.extStats[key]; ok {
		return st
	}
	st := extStat{sizes: make([]float64, c.q.NumEdgesBetween(mask, v))}
	st.mu, _ = c.opts.Catalogue.ExtendStats(c.q, mask, v, st.sizes)
	c.extStats[key] = st
	return st
}

// cardinality estimates the number of matches of the projection of q onto
// mask (Section 5.2, estimate 1): a deterministic extension chain whose µ
// values multiply out. Memoized per mask.
func (c *context) cardinality(mask query.Mask) float64 {
	if v, ok := c.card[mask]; ok {
		return v
	}
	var out float64
	switch bits.OnesCount32(mask) {
	case 1:
		v := bits.TrailingZeros32(mask)
		out = c.opts.Catalogue.VertexCountByLabel(c.q.Vertices[v].Label)
	case 2:
		for _, e := range c.q.Edges {
			if mask == query.Bit(e.From)|query.Bit(e.To) {
				out = c.opts.Catalogue.ScanCount(e.Label, c.q.Vertices[e.From].Label, c.q.Vertices[e.To].Label)
				break
			}
		}
	default:
		// Remove the most-connected removable vertex: its µ is estimated
		// from the largest base, so the chain stays maximally informed.
		bestV, bestDeg := -1, -1
		for v := 0; v < c.q.NumVertices(); v++ {
			rest := mask &^ query.Bit(v)
			if rest == mask || !c.q.IsConnected(rest) {
				continue
			}
			// v ascends, so the lowest index wins among equal degrees.
			if d := c.q.NumEdgesBetween(rest, v); d > bestDeg {
				bestV, bestDeg = v, d
			}
		}
		if bestV >= 0 {
			rest := mask &^ query.Bit(bestV)
			out = c.cardinality(rest) * c.extension(rest, bestV).mu
		}
	}
	c.card[mask] = out
	return out
}

// extendCost returns the estimated cost of the E/I operator ext, which
// extends the subquery on childMask (already computed by ext.Child) with
// one vertex: RowCost per row that reaches it, plus Equations 1-2 — the
// lists it reads — once per distinct intersection (the cache-conscious
// refinement of Section 5.2; see trailing). List sizes are estimated on
// the same prefix the intersections are counted on, so a leaf of a
// star-shaped suffix is priced on the factorized prefix it runs on, not
// on its siblings. The order of a suffix's leaves matters only as the
// executor's early-out does: a prefix match one leaf finds no extension
// for reaches no later leaf, so each earlier leaf thins the rows by its
// µ, where that is below one.
//
// An inheriting extension (plan.Extend.Inherited: the child E/I's
// descriptors are a subset of ext's) is priced the way the executor runs
// it: the child's extension set, of expected size µ — at least one,
// since only a non-empty set produces rows to extend — stands in for the
// lists it already intersects. Carrying is the intersection cache
// generalised, so cache-oblivious costing ignores it too.
func (c *context) extendCost(childMask query.Mask, ext *plan.Extend) float64 {
	v := ext.TargetVertex
	prefix, rows, leaves := c.trailing(ext.Child, childMask, c.nbr[v])
	visits := c.cardinality(rows)
	for base := visits; leaves != 0 && base > 0; leaves &= leaves - 1 {
		visits *= math.Min(1, c.cardinality(rows|leaves&-leaves)/base)
	}
	st := c.extension(prefix, v)
	lists := catalogue.EffectiveICost(st.sizes)
	// Descriptor i is st.sizes[i] (see extStat); the length check guards
	// externally built plans (EstimateCost).
	if covered := ext.Inherited(); covered != 0 && !c.opts.CacheOblivious && len(st.sizes) == len(ext.Descriptors) {
		up := ext.Child.(*plan.Extend).TargetVertex
		// prefix lacks up already when up is a stripped sibling leaf.
		set := math.Max(1, c.extension(prefix&^query.Bit(up), up).mu)
		lists = catalogue.CarriedICost(set, st.sizes, covered)
	}
	return RowCost*visits + math.Min(c.cardinality(prefix), visits)*lists
}

// trailing walks node's output stream from its fastest-varying vertex
// outwards and strips from mask each trailing vertex outside reads, the
// vertices the consuming operator keys on. Tuples stream in chain order
// (a SCAN groups its rows by source), so the consumer's key stays
// constant across such a run and the intersection cache, or a probe's
// key run, serves it: the consumer works once per distinct match of
// prefix. A run of k trailing leaves is thus charged card(prefix) ×
// per-leaf cost, not the cardinality of the growing cross-product, which
// is what the factorized tier computes; rows is mask without those
// leaves (the run's pairwise non-adjacent E/I targets next to the
// consumer), which that tier never unfolds. A hash join's output
// interleaves build rows, so no reuse is assumed through one.
func (c *context) trailing(node plan.Node, mask, reads query.Mask) (prefix, rows, leaves query.Mask) {
	prefix, rows = mask, mask
	for !c.opts.CacheOblivious {
		switch op := node.(type) {
		case *plan.Scan:
			prefix &^= query.Bit(op.DstVertex) &^ reads
		case *plan.Extend:
			if v := query.Bit(op.TargetVertex); v&reads == 0 {
				prefix &^= v
				if rows == prefix|v && !c.adjacent(leaves, op.TargetVertex) {
					rows, leaves = prefix, leaves|v
				}
				node = op.Child
				continue
			}
		}
		break
	}
	return prefix, rows, leaves
}

// tailCost returns the cost of the full-query plan root, priced operator
// by operator at cost, re-priced where the executor's factorized tail
// (plan.TailOf) runs it otherwise. extendCost already prices a leaf of
// the tail on its factorized prefix; a component of two or more vertices
// is evaluated once per distinct separator key, not once per prefix row,
// so its operators are priced as that evaluation (componentCost) — and
// not at all when the component shares an identical component's count or
// is counted off the prefix's runs (plan.Component.Twin, PrefixTwin).
// The tail evaluates a row's components in order and skips the rest once
// one is empty, so a component is reached by the prefix rows every
// component before it extends (min(1, µ) of each). opCosts, when the
// caller has them, are the extendCost of root's E/I operators in chain
// order, root's last; nil recomputes them.
func (c *context) tailCost(root plan.Node, cost float64, opCosts []float64) float64 {
	t := &c.tail
	// Pairwise non-adjacent E/I targets make a tail of leaves only, which
	// extendCost priced already: nothing to find.
	within := query.Mask(0)
	for node := root; ; {
		ext, ok := node.(*plan.Extend)
		if !ok {
			return cost
		}
		if v := ext.TargetVertex; c.nbr[v]&within == 0 {
			within |= query.Bit(v)
			node = ext.Child
			continue
		}
		break
	}
	plan.TailOf(t, c.q, root, true)
	if t.Leaves() {
		return cost
	}
	var ops [query.MaxVertices]*plan.Extend // the tail's operators in chain order
	node := root
	for p := t.Len - 1; p >= 0; p-- {
		ops[p] = node.(*plan.Extend)
		node = ops[p].Child
	}
	reach := c.cardinality(plan.CoverMask(node))
	for _, comp := range t.Components() {
		cops := ops[comp.First : comp.First+comp.Len]
		if comp.Len == 1 {
			op := cops[0]
			on, _, _ := c.trailing(op.Child, plan.CoverMask(op.Child), c.nbr[op.TargetVertex])
			reach *= math.Min(1, c.extension(on, op.TargetVertex).mu)
			continue
		}
		for p := comp.First; p < comp.First+comp.Len; p++ {
			if opCosts != nil {
				cost -= opCosts[len(opCosts)-t.Len+p]
			} else {
				cost -= c.extendCost(plan.CoverMask(ops[p].Child), ops[p])
			}
		}
		if comp.Twin < 0 && !comp.PrefixTwin {
			price, perKey := c.componentCost(reach, comp.Separator, cops)
			cost += price
			reach *= math.Min(1, perKey)
		}
	}
	return cost
}

// componentCost prices a tail component of the operators ops keyed on
// separator, which reach prefix rows reach: RowCost for every one (each
// looks its key up, as a row reaching a leaf does), and, once per
// distinct separator key — the share of the separator's matches those
// rows hold — each operator extending the component's matches before it:
// RowCost a row and its lists (Equations 1-2). An operator's statistics
// are the catalogue's for extending the separator and the component's
// vertices before it — what one key's evaluation reads — and the rows
// multiply by each operator's µ from the separator's count on. perKey is
// the component's expected count on one key.
func (c *context) componentCost(reach float64, separator query.Mask, ops []*plan.Extend) (price, perKey float64) {
	keys := c.cardinality(separator)
	rows, mask, total := keys, separator, 0.0
	for _, op := range ops {
		v := query.Bit(op.TargetVertex)
		var lists, mu float64
		if mask == separator && bits.OnesCount32(mask) == 1 && keys > 0 {
			// One list, the separator's edges to v: the scan statistics
			// price it, with no extension key to look up.
			mu = c.cardinality(mask|v) / keys
			lists = mu
		} else {
			st := c.extension(mask, op.TargetVertex)
			lists, mu = catalogue.EffectiveICost(st.sizes), st.mu
		}
		total += rows * (RowCost + lists)
		rows *= mu
		mask |= v
	}
	perKey = 1
	if keys > 0 {
		perKey = rows / keys
		total *= math.Min(1, reach/keys)
	}
	return RowCost*reach + total, perKey
}

// joinCost returns the cost of hash-joining build and probe subqueries
// (Section 4.2) when probe is the probe side's plan: BuildCost per build
// row, RowCost per probe row, and lookupCost per run of probe rows that
// share a join key (see trailing).
func (c *context) joinCost(buildMask, probeMask query.Mask, probe plan.Node) float64 {
	runs, _, _ := c.trailing(probe, probeMask, buildMask&probeMask)
	return BuildCost*c.cardinality(buildMask) + RowCost*c.cardinality(probeMask) + lookupCost*c.cardinality(runs)
}
