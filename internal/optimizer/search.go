package optimizer

import (
	"cmp"
	"maps"
	"math/bits"
	"slices"

	"graphflow/internal/plan"
	"graphflow/internal/query"
)

// fullEnumerationLimit is the largest query-vertex count planned by the
// exact DP over every connected subquery (Section 4.4); larger queries
// go through beam search.
const fullEnumerationLimit = 10

// planInfo is one kept plan for a subquery mask and its cost. The zero
// value (no node) is an empty DP row.
type planInfo struct {
	node plan.Node
	cost float64
}

// beats reports whether a plan of the given cost should replace the row:
// the row is empty or the cost is strictly lower, so among equal costs
// the first plan offered stays.
func (pi planInfo) beats(cost float64) bool { return pi.node == nil || cost < pi.cost }

// A keeper is what one search keeps of the candidates the candidate
// step (extend, join, grow) offers it. The searches differ only here: the
// exact DP keeps a row per mask, the beam a row per mask for BeamWidth
// masks a level, the spectrum the cheapest few distinct plans per mask.
type keeper interface {
	// plans returns the plans kept for mask, none for a mask the search
	// dropped or never reached.
	plans(mask query.Mask) []planInfo
	// wants reports whether a candidate of the given cost for mask would
	// be kept; the step asks before it builds a hash-join node.
	wants(mask query.Mask, cost float64) bool
	keep(mask query.Mask, cand planInfo)
}

// grow offers k every candidate for mask built from kept plans of
// smaller masks: by ascending vertex v, the E/I adding v to mask − v,
// then the binary joins — c1 over the submasks holding mask's lowest
// vertex, c2 over the rest of mask plus a non-empty part of c1.
func (c *context) grow(k keeper, mask query.Mask) {
	for v := 0; v < c.q.NumVertices(); v++ {
		if rest := mask &^ query.Bit(v); rest != mask && c.adjacent(rest, v) {
			c.extend(k, rest, v)
		}
	}
	lowest := mask & -mask
	for c1 := mask; c1 > 0; c1 = (c1 - 1) & mask {
		if c1&lowest == 0 || c1 == mask || k.plans(c1) == nil {
			continue
		}
		rest := mask &^ c1
		for s := c1; s != 0; s = (s - 1) & c1 {
			if c2 := rest | s; c2 != mask && k.plans(c2) != nil {
				c.join(k, c1, c2)
			}
		}
	}
}

// extend offers k the E/I adding v to each kept plan of rest, priced by
// extendCost and, for the full query, re-priced by its factorized tail.
func (c *context) extend(k keeper, rest query.Mask, v int) {
	mask := rest | query.Bit(v)
	for _, child := range k.plans(rest) {
		ext, err := plan.NewExtend(c.q, child.node, v)
		if err != nil {
			continue
		}
		cost := child.cost + c.extendCost(rest, ext)
		if mask == c.full {
			cost = c.tailCost(ext, cost, nil)
		}
		if k.wants(mask, cost) {
			k.keep(mask, planInfo{node: ext, cost: cost})
		}
	}
}

// join offers k the hash join of every pair of kept plans of c1 and c2,
// when the split is a valid one, built on the smaller estimated side.
func (c *context) join(k keeper, c1, c2 query.Mask) {
	if !c.validJoinSplit(c1, c2) {
		return
	}
	build, probe := c1, c2
	if c.cardinality(c2) < c.cardinality(c1) {
		build, probe = c2, c1
	}
	for _, b := range k.plans(build) {
		for _, p := range k.plans(probe) {
			cost := b.cost + p.cost + c.joinCost(build, probe, p.node)
			if !k.wants(c1|c2, cost) {
				continue
			}
			if hj, err := plan.NewHashJoin(b.node, p.node); err == nil {
				k.keep(c1|c2, planInfo{node: hj, cost: cost})
			}
		}
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

// dpTable is the exact DP's keeper: one row per mask, indexed by mask (below
// fullEnumerationLimit vertices 2^m rows are cheaper than a map of the
// connected ones), holding the first of the cheapest plans offered.
type dpTable struct{ row []planInfo }

func (t *dpTable) plans(mask query.Mask) []planInfo {
	if t.row[mask].node == nil {
		return nil
	}
	return t.row[mask : mask+1]
}

func (t *dpTable) wants(mask query.Mask, cost float64) bool { return t.row[mask].beats(cost) }

func (t *dpTable) keep(mask query.Mask, cand planInfo) { t.row[mask] = cand }

// dynamicProgram runs Algorithm 1 exactly and returns the full query's
// row. Line 1 offers every WCO plan first, its scans being line 2, so a
// mask starts from its cheapest WCO plan (intersection-cache effects make
// the best one for Qk not necessarily extend the best for Qk-1). Each
// connected subquery is then offered (ii) E/I extensions and (iii) binary
// joins of smaller rows. The walk reaches every connected subquery, so
// under WCOOnly its rows are the answer.
func dynamicProgram(ctx *context) planInfo {
	t := &dpTable{row: make([]planInfo, ctx.full+1)}
	ctx.walkOrders(func(_ []int, mask query.Mask, node plan.Node, cost float64) {
		if t.wants(mask, cost) {
			t.keep(mask, planInfo{node: node, cost: cost})
		}
	})
	if !ctx.opts.WCOOnly {
		for _, mask := range ctx.q.ConnectedSubsets(3) {
			ctx.grow(t, mask)
		}
	}
	return t.row[ctx.full]
}

// beam is beam search's keeper: the rows of the masks kept at earlier
// levels, and one row per mask of the level being grown.
type beam struct {
	kept  map[query.Mask][]planInfo
	level map[query.Mask]planInfo
}

func (b *beam) plans(mask query.Mask) []planInfo { return b.kept[mask] }

func (b *beam) wants(mask query.Mask, cost float64) bool { return b.level[mask].beats(cost) }

func (b *beam) keep(mask query.Mask, cand planInfo) { b.level[mask] = cand }

// beamSearch is the Section 4.4 path for very large queries and returns
// the full query's row: WCO plans are not enumerated separately, and only
// the BeamWidth cheapest subqueries are kept per level (the full query
// always). A level grows from the kept masks — extensions of the level
// below, joins of kept pairs — not from every submask of a wide mask.
func beamSearch(ctx *context) planInfo {
	m := ctx.q.NumVertices()
	b := &beam{kept: map[query.Mask][]planInfo{}}
	levels := make([][]query.Mask, m+1)
	for _, e := range ctx.q.Edges {
		mask := query.Bit(e.From) | query.Bit(e.To)
		b.kept[mask] = []planInfo{{node: plan.NewScan(ctx.q, e)}}
		levels[2] = append(levels[2], mask)
	}
	slices.Sort(levels[2])

	for k := 3; k <= m; k++ {
		b.level = map[query.Mask]planInfo{}
		for _, rest := range levels[k-1] {
			for v := 0; v < m; v++ {
				if rest&query.Bit(v) == 0 && ctx.adjacent(rest, v) {
					ctx.extend(b, rest, v)
				}
			}
		}
		for k1 := 2; k1 <= k-2; k1++ {
			for _, c1 := range levels[k1] {
				for k2 := max(k-k1, 2); k2 <= k-1; k2++ {
					for _, c2 := range levels[k2] {
						if bits.OnesCount32(c1|c2) == k {
							ctx.join(b, c1, c2)
						}
					}
				}
			}
		}
		list := slices.Collect(maps.Keys(b.level))
		slices.SortFunc(list, func(x, y query.Mask) int {
			return cmp.Or(cmp.Compare(b.level[x].cost, b.level[y].cost), cmp.Compare(x, y))
		})
		for i, mask := range list {
			if i < ctx.opts.BeamWidth || mask == ctx.full {
				b.kept[mask] = []planInfo{b.level[mask]}
				levels[k] = append(levels[k], mask)
			}
		}
	}
	return b.level[ctx.full]
}
