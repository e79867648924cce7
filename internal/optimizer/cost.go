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

// newContext validates q and opts and starts an optimization of q under
// opts with their defaults applied.
func newContext(q *query.Graph, opts Options) (*context, error) {
	if opts.Catalogue == nil {
		return nil, fmt.Errorf("optimizer: Options.Catalogue is required")
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := checkNoParallelEdges(q); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
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

// joinCost returns the cost of hash-joining build and probe subqueries
// (Section 4.2) when probe is the probe side's plan: BuildCost per build
// row, RowCost per probe row, and lookupCost per run of probe rows that
// share a join key (see trailing).
func (c *context) joinCost(buildMask, probeMask query.Mask, probe plan.Node) float64 {
	runs, _, _ := c.trailing(probe, probeMask, buildMask&probeMask)
	return BuildCost*c.cardinality(buildMask) + RowCost*c.cardinality(probeMask) + lookupCost*c.cardinality(runs)
}
