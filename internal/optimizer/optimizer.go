// Package optimizer implements the paper's primary contribution: the
// cost-based dynamic-programming optimizer of Section 4 that enumerates
// WCO, binary-join and hybrid plans over connected vertex subsets of the
// query and ranks them in one currency — i-cost (Section 3.3) with the
// row costs of this engine's operators, the hash join's of Section 4.2
// among them — over the catalogue estimates of Section 5.
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

// Row costs in i-cost units (one unit: one adjacency-list element an E/I
// reads), from BenchmarkHashJoinBuildProbe (internal/exec): triangle ⋈
// triangle on LiveJournal(1), one worker, each phase net of its sides'
// own E/I time, per row, over that E/I time per unit (2.2–2.9 ns). Medians
// of 8 runs of 20 joins: a one-vertex key (key1) costs 28 units per build
// row and 22 per probe row, a two-vertex key (key2) 37 and 37. A key1
// probe row keeps the key of the row before it (its side's scan source),
// so it costs only its row; every key2 probe row looks its key up.
const (
	RowCost    = 22.0 // a row reaching an E/I or a probe: key1's probe row
	BuildCost  = 32.0 // a build row written to the table and sealed
	lookupCost = 15.0 // a hash-table lookup: key2's probe row less RowCost
)

// Options configures one optimization.
type Options struct {
	// Catalogue supplies the statistics; required.
	Catalogue *catalogue.Catalogue
	// WCOOnly restricts the plan space to WCO plans (the BiGJoin/earlier
	// Graphflow configuration used as a baseline).
	WCOOnly bool
	// CacheOblivious disables intersection-cache-aware costing (the
	// cache-oblivious optimizer discussed in Section 5.2).
	CacheOblivious bool
	// FullEnumerationLimit is the largest query-vertex count for which all
	// WCO orderings are enumerated exactly (Section 4.4); default 10.
	FullEnumerationLimit int
	// BeamWidth is the number of subqueries kept per level for larger
	// queries (Section 4.4); default 5.
	BeamWidth int
	// Deprecated: ignored. Star-shaped suffixes are always priced at
	// set-computation cost, as the factorized tier runs them.
	Factorized bool
}

func (o Options) withDefaults() Options {
	if o.FullEnumerationLimit == 0 {
		o.FullEnumerationLimit = 10
	}
	if o.BeamWidth == 0 {
		o.BeamWidth = 5
	}
	return o
}

// planInfo is a DP table row: the best plan found for one subquery mask.
// The zero value (no node) is an empty row.
type planInfo struct {
	node plan.Node
	cost float64
}

// beats reports whether a plan of the given cost should replace the row:
// the row is empty or the cost is strictly lower, so among equal costs
// the first plan considered stays.
func (pi planInfo) beats(cost float64) bool { return pi.node == nil || cost < pi.cost }

// Optimize returns the lowest-estimated-cost plan for q (Algorithm 1).
func Optimize(q *query.Graph, opts Options) (*plan.Plan, error) {
	ctx, err := newContext(q, opts)
	if err != nil {
		return nil, err
	}
	m := q.NumVertices()

	var best planInfo
	if m > ctx.opts.FullEnumerationLimit {
		best = beamSearch(ctx)
	} else {
		best = dynamicProgram(ctx)
	}
	if best.node == nil {
		return nil, fmt.Errorf("optimizer: no plan found")
	}
	p := &plan.Plan{
		Query:                q,
		Root:                 best.node,
		EstimatedCost:        best.cost,
		EstimatedCardinality: ctx.cardinality(query.AllMask(m)),
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
// extensions and binary joins. It returns the full query's row. The
// table is indexed by mask: below FullEnumerationLimit vertices, 2^m rows
// are cheaper than a map of the connected ones.
func dynamicProgram(ctx *context) planInfo {
	q := ctx.q
	m := q.NumVertices()
	table := make([]planInfo, 1<<uint(m))

	// Line 2: initialise each query edge to its scan. Scanning is the
	// unavoidable input cost, priced 0; plans differ beyond it.
	for _, e := range q.Edges {
		if row := &table[query.Bit(e.From)|query.Bit(e.To)]; row.node == nil {
			row.node = plan.NewScan(q, e)
		}
	}

	// Line 1: enumerate all WCO plans; record the cheapest per prefix mask
	// (intersection-cache effects make the best WCO plan for Qk not
	// necessarily extend the best plan for Qk-1).
	wcoBest := enumerateWCOBest(ctx)

	for _, mask := range q.ConnectedSubsets(3) {
		// (i) best WCO plan for this subquery.
		best := wcoBest[mask]
		// (ii) extend a smaller best plan by one vertex. A row exists only
		// for a connected subquery. Under WCOOnly the stored plans are WCO
		// plans, and extending them only matters where (i) found nothing.
		if !ctx.opts.WCOOnly || best.node == nil {
			for v := 0; v < m; v++ {
				rest := mask &^ query.Bit(v)
				if rest == mask || table[rest].node == nil || !ctx.adjacent(rest, v) {
					continue
				}
				ext, err := plan.NewExtend(q, table[rest].node, v)
				if err != nil {
					continue
				}
				if cost := table[rest].cost + ctx.extendCost(rest, ext); best.beats(cost) {
					best = planInfo{node: ext, cost: cost}
				}
			}
		}
		// (iii) binary join of two smaller best plans.
		if !ctx.opts.WCOOnly {
			joinCandidates(ctx, mask, table, &best)
		}
		table[mask] = best
	}
	return table[query.AllMask(m)]
}

// joinCandidates offers best every binary join computing mask from two
// connected subqueries already in the table. Following Section 4.3, joins
// that a single E/I could replace (one side adds exactly one vertex) are
// omitted — case (ii) covers them more cheaply.
func joinCandidates(ctx *context, mask query.Mask, table []planInfo, best *planInfo) {
	lowest := mask & -mask

	// Enumerate c1 as submasks of mask containing the lowest bit.
	for c1 := mask; c1 > 0; c1 = (c1 - 1) & mask {
		if c1&lowest == 0 || c1 == mask || table[c1].node == nil {
			continue
		}
		// c2 must cover mask\c1 plus a non-empty shared part of c1.
		rest := mask &^ c1
		for s := c1; s != 0; s = (s - 1) & c1 {
			if c2 := rest | s; c2 != mask && table[c2].node != nil {
				tryJoin(ctx, c1, c2, table[c1], table[c2], best)
			}
		}
	}
}

// tryJoin offers best the hash join of the plans i1 and i2 for the
// subqueries c1 and c2, when the split is a valid one.
func tryJoin(ctx *context, c1, c2 query.Mask, i1, i2 planInfo, best *planInfo) {
	if !ctx.validJoinSplit(c1, c2) {
		return
	}
	// Orient: build on the smaller estimated side.
	build, probe := c1, c2
	bi, pi := i1, i2
	if ctx.cardinality(c2) < ctx.cardinality(c1) {
		build, probe = c2, c1
		bi, pi = i2, i1
	}
	cost := bi.cost + pi.cost + ctx.joinCost(build, probe, pi.node)
	if !best.beats(cost) {
		return
	}
	if hj, err := plan.NewHashJoin(bi.node, pi.node); err == nil {
		*best = planInfo{node: hj, cost: cost}
	}
}

// validJoinSplit reports whether the subqueries c1 and c2 may be hash
// joined into c1|c2 (Section 4.3). They must overlap, and every edge of
// the union's projection must lie inside one side (the projection
// constraint makes Qk = Qc1 ∪ Qc2), so no edge may connect a vertex only
// c1 has to one only c2 has. Joins replaceable by a single-list E/I are
// omitted (the a1->a2->a3 example): one side is a single query edge
// hanging off one shared vertex. Joins of larger sub-queries stay — the
// diamond-X triangles join of Figure 1c is a legitimate hybrid plan,
// though priced per row it loses to the factorized WCO plan.
func (c *context) validJoinSplit(c1, c2 query.Mask) bool {
	if c1&c2 == 0 {
		return false
	}
	only2 := c2 &^ c1
	for only1 := c1 &^ c2; only1 != 0; only1 &= only1 - 1 {
		if c.adjacent(only2, bits.TrailingZeros32(only1)) {
			return false
		}
	}
	return !singleEdgeAttachment(c1, c2) && !singleEdgeAttachment(c2, c1)
}

// singleEdgeAttachment reports whether side is a 2-vertex subquery sharing
// exactly one vertex with other — the hash joins a single-descriptor E/I
// always beats.
func singleEdgeAttachment(side, other query.Mask) bool {
	return bits.OnesCount32(side) == 2 && bits.OnesCount32(side&other) == 1
}

// beamSearch is the Section 4.4 path for very large queries: WCO plans are
// not enumerated separately, and only the BeamWidth cheapest subqueries are
// kept per level. It returns the full query's row. Masks are too wide to
// index a table here, so rows live in maps.
func beamSearch(ctx *context) planInfo {
	q := ctx.q
	m := q.NumVertices()
	table := map[query.Mask]planInfo{}
	levels := make([][]query.Mask, m+1)

	for _, e := range q.Edges {
		mask := query.Bit(e.From) | query.Bit(e.To)
		if _, ok := table[mask]; !ok {
			table[mask] = planInfo{node: plan.NewScan(q, e)}
			levels[2] = append(levels[2], mask)
		}
	}
	sort.Slice(levels[2], func(i, j int) bool { return levels[2][i] < levels[2][j] })

	for k := 3; k <= m; k++ {
		cands := map[query.Mask]planInfo{}
		for _, rest := range levels[k-1] {
			child := table[rest]
			for v := 0; v < m; v++ {
				if rest&query.Bit(v) != 0 || !ctx.adjacent(rest, v) {
					continue
				}
				ext, err := plan.NewExtend(q, child.node, v)
				if err != nil {
					continue
				}
				mask := rest | query.Bit(v)
				if cost := child.cost + ctx.extendCost(rest, ext); cands[mask].beats(cost) {
					cands[mask] = planInfo{node: ext, cost: cost}
				}
			}
		}
		// Joins of stored smaller levels.
		for k1 := 2; k1 <= k-2; k1++ {
			for _, c1 := range levels[k1] {
				for k2 := max(k-k1, 2); k2 <= k-1; k2++ {
					for _, c2 := range levels[k2] {
						mask := c1 | c2
						if bits.OnesCount32(mask) != k {
							continue
						}
						best := cands[mask]
						tryJoin(ctx, c1, c2, table[c1], table[c2], &best)
						if best.node != nil {
							cands[mask] = best
						}
					}
				}
			}
		}
		// Keep the BeamWidth cheapest (always keep the full mask).
		list := make([]query.Mask, 0, len(cands))
		for mask := range cands {
			list = append(list, mask)
		}
		sort.Slice(list, func(i, j int) bool {
			if ci, cj := cands[list[i]].cost, cands[list[j]].cost; ci != cj {
				return ci < cj
			}
			return list[i] < list[j]
		})
		for i, mask := range list {
			if i >= ctx.opts.BeamWidth && mask != query.AllMask(m) {
				continue
			}
			table[mask] = cands[mask]
			levels[k] = append(levels[k], mask)
		}
	}
	return table[query.AllMask(m)]
}

// EstimateCost exposes the cost model for a given externally-built plan:
// the sum of its operators' estimated costs (+Inf for an invalid query or
// options). Used by the spectrum and baseline experiments to rank
// arbitrary plans consistently.
func EstimateCost(q *query.Graph, p *plan.Plan, opts Options) float64 {
	ctx, err := newContext(q, opts)
	if err != nil {
		return math.Inf(1)
	}
	var rec func(n plan.Node) float64
	rec = func(n plan.Node) float64 {
		switch op := n.(type) {
		case *plan.Scan:
			return 0
		case *plan.Extend:
			childMask := plan.CoverMask(op.Child)
			return rec(op.Child) + ctx.extendCost(childMask, op)
		case *plan.HashJoin:
			return rec(op.Build) + rec(op.Probe) + ctx.joinCost(plan.CoverMask(op.Build), plan.CoverMask(op.Probe), op.Probe)
		default:
			return math.Inf(1)
		}
	}
	return rec(p.Root)
}
