package optimizer

import (
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
	cat  *catalogue.Catalogue
	opts Options

	// nbr[v] is the set of query vertices sharing an edge with v: the
	// adjacency and join-split tests of the search read it instead of
	// rescanning (and copying out of) the edge list.
	nbr      []query.Mask
	card     map[query.Mask]float64
	extStats map[extKey]extStat
	sigMemo  map[extKey]string
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

func newContext(q *query.Graph, opts Options) *context {
	c := &context{
		q:        q,
		cat:      opts.Catalogue,
		opts:     opts,
		nbr:      make([]query.Mask, q.NumVertices()),
		card:     map[query.Mask]float64{},
		extStats: map[extKey]extStat{},
		sigMemo:  map[extKey]string{},
	}
	for _, e := range q.Edges {
		c.nbr[e.From] |= query.Bit(e.To)
		c.nbr[e.To] |= query.Bit(e.From)
	}
	return c
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
	st.mu, _ = c.cat.ExtendStats(c.q, mask, v, st.sizes)
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
	case 0:
		out = 0
	case 1:
		v := bits.TrailingZeros32(mask)
		out = c.cat.VertexCountByLabel(c.q.Vertices[v].Label)
	case 2:
		for _, e := range c.q.Edges {
			if mask == query.Bit(e.From)|query.Bit(e.To) {
				out = c.cat.ScanCount(e.Label, c.q.Vertices[e.From].Label, c.q.Vertices[e.To].Label)
				break
			}
		}
	default:
		// Remove the most-connected removable vertex: its µ is estimated
		// from the largest base, so the chain stays maximally informed.
		bestV, bestDeg := -1, -1
		for v := 0; v < c.q.NumVertices(); v++ {
			if mask&query.Bit(v) == 0 {
				continue
			}
			rest := mask &^ query.Bit(v)
			if !c.q.IsConnected(rest) {
				continue
			}
			d := c.q.NumEdgesBetween(rest, v)
			// v ascends, so the lowest index wins among equal degrees.
			if d > bestDeg {
				bestV, bestDeg = v, d
			}
		}
		if bestV < 0 {
			out = 0
		} else {
			rest := mask &^ query.Bit(bestV)
			st := c.extension(rest, bestV)
			out = c.cardinality(rest) * st.mu
		}
	}
	c.card[mask] = out
	return out
}

// extendCost returns the estimated i-cost of the E/I operator ext, which
// extends the subquery on childMask (already computed by ext.Child) with
// one vertex (Equations 1-2 with the cache-conscious refinement of
// Section 5.2).
//
// The executor's intersection cache reuses the previous extension set when
// consecutive tuples agree on every descriptor anchor. Tuples stream in
// chain order, so consecutive tuples share all slots except the child's
// most recently added vertex: if no descriptor reads that vertex, the
// number of distinct intersections collapses from card(childMask) to
// card(childMask minus the last-added vertex). A SCAN groups its tuples by
// source vertex, so its "last added" is the destination.
//
// An inheriting extension (plan.Extend.Inherited: the child E/I's
// descriptors are a subset of ext's) is priced the way the executor runs
// it: the child's extension set, of expected size µ(child) — at least one,
// since only a non-empty set produces rows to extend — stands in for the
// lists it already intersects. Carrying is the intersection cache
// generalised, so cache-oblivious costing ignores it too.
func (c *context) extendCost(childMask query.Mask, ext *plan.Extend) float64 {
	v := ext.TargetVertex
	st := c.extension(childMask, v)
	mult := c.reuseMult(childMask, v, ext.Child)
	// Descriptor i is st.sizes[i] (see extStat); the length check guards
	// externally built plans (EstimateCost).
	covered := ext.Inherited()
	if covered == 0 || c.opts.CacheOblivious || len(st.sizes) != len(ext.Descriptors) {
		return mult * catalogue.EffectiveICost(st.sizes)
	}
	up := ext.Child.(*plan.Extend).TargetVertex
	set := math.Max(1, c.extension(childMask&^query.Bit(up), up).mu)
	return mult * catalogue.CarriedICost(set, st.sizes, covered)
}

// reuseMult estimates the number of distinct intersections the E/I
// operator extending childMask by v performs. Cache-consciously, tuples
// stream in chain order — consecutive tuples differ only in a trailing
// run of recently-added vertices — so every trailing vertex no
// descriptor of v reads can be stripped from the multiplier: its
// variation keeps v's descriptor key constant, and the single-entry
// intersection cache serves the whole run. The walk goes back through a
// whole star-shaped suffix of leaves, collapsing the multiplier to the
// prefix cardinality: a run of k trailing leaves is charged card(prefix)
// × per-leaf i-cost, not the cardinality of the growing cross-product —
// one extension set per leaf per distinct prefix, which is what the
// factorized execution tier computes.
func (c *context) reuseMult(childMask query.Mask, v int, childPlan plan.Node) float64 {
	mask := childMask
	if !c.opts.CacheOblivious {
		node := childPlan
		for {
			last, ok := lastAddedVertex(node)
			if !ok || c.adjacent(query.Bit(last), v) {
				break
			}
			mask &^= query.Bit(last)
			ext, isExt := node.(*plan.Extend)
			if !isExt {
				// A SCAN's destination is already stripped; its source is
				// the outermost loop and always remains.
				break
			}
			node = ext.Child
		}
	}
	return c.cardinality(mask)
}

// joinCost returns the cost of hash-joining build and probe subqueries
// (Section 4.2): w1*n1 + w2*n2 in i-cost units.
func (c *context) joinCost(buildMask, probeMask query.Mask) float64 {
	return w1*c.cardinality(buildMask) + w2*c.cardinality(probeMask)
}

// lastAddedVertex reports the query vertex whose value varies fastest in
// the output stream of node: the target of an E/I, or the destination of a
// SCAN. Hash-join outputs interleave build rows, so no reuse is assumed.
func lastAddedVertex(n plan.Node) (int, bool) {
	switch op := n.(type) {
	case *plan.Extend:
		return op.TargetVertex, true
	case *plan.Scan:
		return op.DstVertex, true
	default:
		return 0, false
	}
}
