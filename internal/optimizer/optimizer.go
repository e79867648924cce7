// Package optimizer implements the paper's primary contribution: the
// cost-based dynamic-programming optimizer of Section 4 that enumerates
// WCO, binary-join and hybrid plans over connected vertex subsets of the
// query, ranked by i-cost (Section 3.3) combined with the hash-join cost
// model of Section 4.2 and the catalogue estimates of Section 5.
package optimizer

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"graphflow/internal/catalogue"
	"graphflow/internal/plan"
	"graphflow/internal/query"
)

// Default hash-join weights (i-cost units per hashed/probed tuple). They
// can be recalibrated per machine with Calibrate.
const (
	DefaultW1 = 3.0
	DefaultW2 = 1.0
)

// Options configures one optimization.
type Options struct {
	// Catalogue supplies the statistics; required.
	Catalogue *catalogue.Catalogue
	// W1 and W2 are the hash-join cost weights (Section 4.2); zero values
	// take the defaults.
	W1, W2 float64
	// WCOOnly restricts the plan space to WCO plans (the BiGJoin/earlier
	// Graphflow configuration used as a baseline).
	WCOOnly bool
	// NoHybrid restricts hash joins to never be followed by intersections
	// above them — not used by the main optimizer, reserved for baselines.
	//
	// CacheOblivious disables intersection-cache-aware costing (the
	// cache-oblivious optimizer discussed in Section 5.2).
	CacheOblivious bool
	// HubThreshold is the store's hub bitset indexing knob (0 takes
	// graph.DefaultHubThreshold, negative means no bitset indexes). The
	// cost model uses it to price E/I operators with the degree-adaptive
	// kernel engine: intersections against hub-indexed lists cost the
	// probe, not the scan, which steers plan choice toward intersections
	// the engine executes cheaply.
	HubThreshold int
	// FullEnumerationLimit is the largest query-vertex count for which all
	// WCO orderings are enumerated exactly (Section 4.4); default 10.
	FullEnumerationLimit int
	// BeamWidth is the number of subqueries kept per level for larger
	// queries (Section 4.4); default 5.
	BeamWidth int
	// Factorized prices star-shaped suffixes at set-computation cost: the
	// cache-conscious multiplier collapse walks back through *every*
	// trailing leaf none of the new extension's descriptors read, instead
	// of just the single last-added vertex, so a run of k trailing leaves
	// is charged card(prefix) × per-leaf i-cost rather than the output
	// cardinality of the growing cross-product. This matches what the
	// factorized execution tier actually does (one extension set per leaf
	// per distinct prefix) and steers plan choice toward orderings that
	// leave star leaves last.
	Factorized bool
}

func (o Options) withDefaults() Options {
	if o.W1 == 0 {
		o.W1 = DefaultW1
	}
	if o.W2 == 0 {
		o.W2 = DefaultW2
	}
	if o.FullEnumerationLimit == 0 {
		o.FullEnumerationLimit = 10
	}
	if o.BeamWidth == 0 {
		o.BeamWidth = 5
	}
	return o
}

// planInfo is a DP table row: the best plan found for one subquery mask.
type planInfo struct {
	node plan.Node
	cost float64
}

// Optimize returns the lowest-estimated-cost plan for q (Algorithm 1).
func Optimize(q *query.Graph, opts Options) (*plan.Plan, error) {
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
	m := q.NumVertices()

	var table map[query.Mask]*planInfo
	if m > opts.FullEnumerationLimit {
		table = beamSearch(ctx)
	} else {
		table = dynamicProgram(ctx)
	}
	full := query.AllMask(m)
	best, ok := table[full]
	if !ok || best == nil {
		return nil, fmt.Errorf("optimizer: no plan found")
	}
	p := &plan.Plan{
		Query:                q,
		Root:                 best.node,
		EstimatedCost:        best.cost,
		EstimatedCardinality: ctx.cardinality(full),
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("optimizer: produced invalid plan: %w", err)
	}
	return p, nil
}

// checkNoParallelEdges rejects queries with more than one edge between the
// same vertex pair: a SCAN matches exactly one query edge and the engine
// has no residual-filter operator (the paper's queries have none either).
func checkNoParallelEdges(q *query.Graph) error {
	seen := map[[2]int]bool{}
	for _, e := range q.Edges {
		a, b := e.From, e.To
		if a > b {
			a, b = b, a
		}
		if seen[[2]int{a, b}] {
			return fmt.Errorf("optimizer: parallel edges between a%d and a%d are not supported", a+1, b+1)
		}
		seen[[2]int{a, b}] = true
	}
	return nil
}

// dynamicProgram runs Algorithm 1 exactly: seed 2-vertex subqueries, fold
// in the best full WCO enumeration per mask, then grow masks by E/I
// extensions and binary joins.
func dynamicProgram(ctx *context) map[query.Mask]*planInfo {
	q := ctx.q
	table := map[query.Mask]*planInfo{}

	// Line 2: initialise each query edge to its scan.
	for _, e := range q.Edges {
		mask := query.Bit(e.From) | query.Bit(e.To)
		cost := 0.0 // scanning is the unavoidable input cost; plans differ beyond it
		cand := &planInfo{node: plan.NewScan(q, e), cost: cost}
		if cur, ok := table[mask]; !ok || cand.cost < cur.cost {
			table[mask] = cand
		}
	}

	// Line 1: enumerate all WCO plans; record the cheapest per prefix mask
	// (intersection-cache effects make the best WCO plan for Qk not
	// necessarily extend the best plan for Qk-1).
	wcoBest := enumerateWCOBest(ctx)

	masks := q.ConnectedSubsets(3)
	for _, mask := range masks {
		var best *planInfo
		consider := func(pi *planInfo) {
			if pi != nil && (best == nil || pi.cost < best.cost) {
				best = pi
			}
		}
		// (i) best WCO plan for this subquery.
		consider(wcoBest[mask])
		if !ctx.opts.WCOOnly {
			// (ii) extend a smaller best plan by one vertex.
			for v := 0; v < q.NumVertices(); v++ {
				if mask&query.Bit(v) == 0 {
					continue
				}
				rest := mask &^ query.Bit(v)
				child, ok := table[rest]
				if !ok || !q.IsConnected(rest) || len(q.EdgesBetween(rest, v)) == 0 {
					continue
				}
				ext, err := plan.NewExtend(q, child.node, v)
				if err != nil {
					continue
				}
				consider(&planInfo{node: ext, cost: child.cost + ctx.extendCost(rest, ext)})
			}
			// (iii) binary join of two smaller best plans.
			for _, cand := range joinCandidates(ctx, mask, table) {
				consider(cand)
			}
		} else if best == nil {
			// WCOOnly: extensions of stored WCO plans only.
			for v := 0; v < q.NumVertices(); v++ {
				if mask&query.Bit(v) == 0 {
					continue
				}
				rest := mask &^ query.Bit(v)
				child, ok := table[rest]
				if !ok || len(q.EdgesBetween(rest, v)) == 0 {
					continue
				}
				ext, err := plan.NewExtend(q, child.node, v)
				if err != nil {
					continue
				}
				consider(&planInfo{node: ext, cost: child.cost + ctx.extendCost(rest, ext)})
			}
		}
		if best != nil {
			table[mask] = best
		}
	}
	return table
}

// joinCandidates enumerates binary joins computing mask from two connected
// subqueries already in the table. Following Section 4.3, joins that a
// single E/I could replace (one side adds exactly one vertex) are omitted —
// case (ii) covers them more cheaply.
func joinCandidates(ctx *context, mask query.Mask, table map[query.Mask]*planInfo) []*planInfo {
	q := ctx.q
	var out []*planInfo
	lowest := query.Mask(1) << uint(bits.TrailingZeros32(mask))
	edgesWithin := q.EdgesWithin(mask)

	// Enumerate c1 as submasks of mask containing the lowest bit.
	for c1 := mask; c1 > 0; c1 = (c1 - 1) & mask {
		if c1&lowest == 0 || c1 == mask {
			continue
		}
		info1, ok := table[c1]
		if !ok {
			continue
		}
		// c2 must cover mask\c1 plus a non-empty shared part of c1.
		rest := mask &^ c1
		if rest == 0 {
			continue
		}
		shared := c1
		for s := shared; ; s = (s - 1) & shared {
			c2 := rest | s
			if s != 0 && c2 != mask {
				if info2, ok := table[c2]; ok && c1&c2 != 0 {
					if cand := tryJoin(ctx, mask, c1, c2, info1, info2, edgesWithin); cand != nil {
						out = append(out, cand)
					}
				}
			}
			if s == 0 {
				break
			}
		}
	}
	return out
}

func tryJoin(ctx *context, mask, c1, c2 query.Mask, i1, i2 *planInfo, edgesWithin []query.Edge) *planInfo {
	// Every edge of the mask-projection must lie inside one side (the
	// projection constraint makes Qk = Qc1 ∪ Qc2).
	for _, e := range edgesWithin {
		eb := query.Bit(e.From) | query.Bit(e.To)
		if eb&^c1 != 0 && eb&^c2 != 0 {
			return nil
		}
	}
	// Joins replaceable by a single-list E/I are omitted (Section 4.3's
	// a1->a2->a3 example): one side is a single query edge hanging off one
	// shared vertex. Joins of larger sub-queries stay — the diamond-X
	// triangles join of Figure 1c is a legitimate hybrid plan.
	if singleEdgeAttachment(c1, c2) || singleEdgeAttachment(c2, c1) {
		return nil
	}
	// Orient: build on the smaller estimated side.
	build, probe := c1, c2
	bi, pi := i1, i2
	if ctx.cardinality(c2) < ctx.cardinality(c1) {
		build, probe = c2, c1
		bi, pi = i2, i1
	}
	hj, err := plan.NewHashJoin(bi.node, pi.node)
	if err != nil {
		return nil
	}
	cost := bi.cost + pi.cost + ctx.joinCost(build, probe)
	return &planInfo{node: hj, cost: cost}
}

// singleEdgeAttachment reports whether side is a 2-vertex subquery sharing
// exactly one vertex with other — the hash joins a single-descriptor E/I
// always beats.
func singleEdgeAttachment(side, other query.Mask) bool {
	return bits.OnesCount32(side) == 2 && bits.OnesCount32(side&other) == 1
}

// beamSearch is the Section 4.4 path for very large queries: WCO plans are
// not enumerated separately, and only the BeamWidth cheapest subqueries are
// kept per level.
func beamSearch(ctx *context) map[query.Mask]*planInfo {
	q := ctx.q
	m := q.NumVertices()
	table := map[query.Mask]*planInfo{}
	levels := make([][]query.Mask, m+1)

	for _, e := range q.Edges {
		mask := query.Bit(e.From) | query.Bit(e.To)
		if cur, ok := table[mask]; !ok || cur.cost > 0 {
			table[mask] = &planInfo{node: plan.NewScan(q, e), cost: 0}
		}
	}
	for mask := range table {
		levels[2] = append(levels[2], mask)
	}
	sort.Slice(levels[2], func(i, j int) bool { return levels[2][i] < levels[2][j] })

	for k := 3; k <= m; k++ {
		cands := map[query.Mask]*planInfo{}
		considerExt := func(rest query.Mask, v int) {
			child := table[rest]
			mask := rest | query.Bit(v)
			ext, err := plan.NewExtend(q, child.node, v)
			if err != nil {
				return
			}
			cost := child.cost + ctx.extendCost(rest, ext)
			if cur, ok := cands[mask]; !ok || cost < cur.cost {
				cands[mask] = &planInfo{node: ext, cost: cost}
			}
		}
		for _, rest := range levels[k-1] {
			for v := 0; v < m; v++ {
				if rest&query.Bit(v) != 0 || len(q.EdgesBetween(rest, v)) == 0 {
					continue
				}
				considerExt(rest, v)
			}
		}
		// Joins of stored smaller levels.
		for k1 := 2; k1 <= k-2; k1++ {
			for _, c1 := range levels[k1] {
				for k2 := k - k1; k2 <= k-1; k2++ {
					if k2 < 2 || k2 > m {
						continue
					}
					for _, c2 := range levels[k2] {
						mask := c1 | c2
						if bits.OnesCount32(mask) != k || c1&c2 == 0 {
							continue
						}
						if cand := tryJoin(ctx, mask, c1, c2, table[c1], table[c2], q.EdgesWithin(mask)); cand != nil {
							if cur, ok := cands[mask]; !ok || cand.cost < cur.cost {
								cands[mask] = cand
							}
						}
					}
				}
			}
		}
		// Keep the BeamWidth cheapest (always keep the full mask).
		type entry struct {
			mask query.Mask
			pi   *planInfo
		}
		var list []entry
		for mask, pi := range cands {
			list = append(list, entry{mask, pi})
		}
		sort.Slice(list, func(i, j int) bool {
			if list[i].pi.cost != list[j].pi.cost {
				return list[i].pi.cost < list[j].pi.cost
			}
			return list[i].mask < list[j].mask
		})
		keep := ctx.opts.BeamWidth
		for i, ent := range list {
			if i >= keep && ent.mask != query.AllMask(m) {
				continue
			}
			table[ent.mask] = ent.pi
			levels[k] = append(levels[k], ent.mask)
		}
	}
	return table
}

// EstimateCost exposes the cost model for a given externally-built plan:
// the sum of its operators' estimated costs. Used by the spectrum and
// baseline experiments to rank arbitrary plans consistently.
func EstimateCost(q *query.Graph, p *plan.Plan, opts Options) float64 {
	opts = opts.withDefaults()
	ctx := newContext(q, opts)
	var rec func(n plan.Node) float64
	rec = func(n plan.Node) float64 {
		switch op := n.(type) {
		case *plan.Scan:
			return 0
		case *plan.Extend:
			childMask := plan.CoverMask(op.Child)
			return rec(op.Child) + ctx.extendCost(childMask, op)
		case *plan.HashJoin:
			return rec(op.Build) + rec(op.Probe) + ctx.joinCost(plan.CoverMask(op.Build), plan.CoverMask(op.Probe))
		default:
			return math.Inf(1)
		}
	}
	return rec(p.Root)
}
