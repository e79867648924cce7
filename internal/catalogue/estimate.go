package catalogue

import (
	"math"
	"math/bits"

	"graphflow/internal/graph"
	"graphflow/internal/query"
)

// ExtensionStats estimates the statistics for extending base by a new
// vertex labelled tl through the given edges (which reference base's
// vertices plus base.NumVertices() as the target): the average size of each
// descriptor's adjacency list (aligned with the edges order) and the
// average number of extensions µ. The boolean reports whether a catalogue
// entry (direct or reduced) was found.
//
// This is the spelled-out form of ExtendStats, which planners call: it
// assembles the extension into one graph first.
func (c *Catalogue) ExtensionStats(base *query.Graph, edges []query.Edge, tl graph.Label) ([]float64, float64, bool) {
	k := base.NumVertices()
	sizes := make([]float64, len(edges))
	mu, found := c.ExtendStats(Extension{Base: base, Edges: edges, TargetLabel: tl}.graph(), query.AllMask(k), k, sizes)
	return sizes, mu, found
}

// ExtendStats estimates the statistics for extending the projection of q
// onto base by vertex v of q: the extension's descriptors are q's edges
// between v and base. sizes must have one element per descriptor and
// receives each one's average adjacency-list size, in q.Edges order; the
// results are the average number of extensions µ and whether a catalogue
// entry (direct or reduced) was found. Nothing is projected or copied:
// keys are computed on q in place.
//
// Resolution order (Section 5.2):
//  1. exact catalogue entry;
//  2. if base is larger than H, the minimum-µ estimate over all reduced
//     entries obtained by removing (|base|-H)-vertex subsets and their
//     descriptors;
//  3. graph-wide average list sizes with an independence assumption for µ.
//
//gf:noalloc
func (c *Catalogue) ExtendStats(q *query.Graph, base query.Mask, v int, sizes []float64) (float64, bool) {
	k := bits.OnesCount32(base)
	if k <= c.Cfg.H {
		// Only bases of at most H vertices can have entries, and skipping
		// the direct lookup for larger bases also avoids canonicalizing
		// large graphs (factorial cost).
		var perm [query.MaxVertices]int
		if e := c.lookup(q, base, v, len(sizes), &perm); e >= 0 {
			c.fillSizes(q, base, base, v, &perm, c.entries.listsOf(e), sizes)
			return c.entries.mu[e], true
		}
	}
	// Missing entry: reduce the base by removing vertex subsets until a
	// recorded entry matches (Section 5.2's rule, generalised: bases at or
	// below H can also miss when construction was budget-bounded, so keep
	// shrinking toward well-sampled small patterns before giving up).
	for target := min(k-1, c.Cfg.H); target >= 1; target-- {
		if mu, ok := c.reducedStats(q, base, v, k-target, sizes); ok {
			return mu, true
		}
	}
	return c.defaultStats(q, base, v, sizes), false
}

// minEntrySamples is the smallest sample count an entry needs before the
// estimator trusts it: budget-bounded construction can leave entries
// averaged over a handful of instances, whose µ (often 0) would otherwise
// poison cardinality chains. Thinner entries fall through to the
// reduction rule.
const minEntrySamples = 5

// keyStackBytes holds the key of a 5-vertex extension with every edge
// present, so lookups up to H = 4 build their key on the stack.
const keyStackBytes = 1 + 2*5 + 4*20

// lookup returns the number of the trusted entry for extending the
// projection of q onto keep by v through descs descriptors, or -1, and
// leaves the canonical renumbering in perm for fillSizes.
func (c *Catalogue) lookup(q *query.Graph, keep query.Mask, v, descs int, perm *[query.MaxVertices]int) int {
	var buf [keyStackBytes]byte
	key := extensionKey(buf[:0], q, keep, v, perm[:])
	if e, _ := c.entries.find(key); e >= 0 && len(c.entries.listsOf(e)) == descs && c.entries.samples[e] >= minEntrySamples {
		return e
	}
	return -1
}

// fillSizes writes the list size of every descriptor of extending base
// by v into sizes: the entry's (lists, with perm, from lookup on keep)
// for a descriptor anchored in keep, the graph-wide default otherwise.
func (c *Catalogue) fillSizes(q *query.Graph, base, keep query.Mask, v int, perm *[query.MaxVertices]int, lists, sizes []float64) {
	i := 0
	for _, e := range q.Edges {
		anchor, dir, ok := descriptorOf(e, base, v)
		if !ok {
			continue
		}
		if keep&query.Bit(anchor) != 0 {
			sizes[i] = lists[descriptorRank(q, keep, v, perm, e)]
		} else {
			sizes[i] = c.DefaultListSize(dir, e.Label, q.Vertices[v].Label)
		}
		i++
	}
}

// reducedStats implements the missing-entry rule: remove every
// removeCount-subset of base vertices (dropping descriptors anchored on
// removed vertices), look the reduced entries up, and keep the minimum µ
// (the first in lexicographic subset order on a tie). Removed descriptors
// contribute default list sizes.
func (c *Catalogue) reducedStats(q *query.Graph, base query.Mask, v, removeCount int, sizes []float64) (float64, bool) {
	var verts [query.MaxVertices]int // base's vertices, ascending
	k := 0
	for m := base; m != 0; m &= m - 1 {
		verts[k] = bits.TrailingZeros32(m)
		k++
	}
	if removeCount <= 0 || removeCount >= k {
		return 0, false
	}
	bestMu := math.Inf(1)
	found := false

	// comb walks the removeCount-subsets of verts in lexicographic order.
	var comb [query.MaxVertices]int
	for i := 0; i < removeCount; i++ {
		comb[i] = i
	}
	for {
		keep := base
		for i := 0; i < removeCount; i++ {
			keep &^= query.Bit(verts[comb[i]])
		}
		if q.IsConnected(keep) {
			// Descriptors anchored on surviving vertices stay.
			if kept := q.NumEdgesBetween(keep, v); kept > 0 {
				var perm [query.MaxVertices]int
				if e := c.lookup(q, keep, v, kept, &perm); e >= 0 && c.entries.mu[e] < bestMu {
					bestMu = c.entries.mu[e]
					c.fillSizes(q, base, keep, v, &perm, c.entries.listsOf(e), sizes)
					found = true
				}
			}
		}
		i := removeCount - 1
		for i >= 0 && comb[i] == k-removeCount+i {
			i--
		}
		if i < 0 {
			break
		}
		comb[i]++
		for j := i + 1; j < removeCount; j++ {
			comb[j] = comb[j-1] + 1
		}
	}
	return bestMu, found
}

// defaultStats is the last-resort estimate: graph-wide average partition
// sizes and an independence-assumption µ (the first list filtered by each
// further list's hit probability |Li|/n).
func (c *Catalogue) defaultStats(q *query.Graph, base query.Mask, v int, sizes []float64) float64 {
	i := 0
	for _, e := range q.Edges {
		if _, dir, ok := descriptorOf(e, base, v); ok {
			sizes[i] = c.DefaultListSize(dir, e.Label, q.Vertices[v].Label)
			i++
		}
	}
	mu := 0.0
	if len(sizes) > 0 && c.NumVertices > 0 {
		mu = sizes[0]
		for _, s := range sizes[1:] {
			mu *= s / float64(c.NumVertices)
		}
	}
	return mu
}

// EstimateCardinality estimates |Q| as the paper does: pick a WCO-style
// extension chain for q and multiply the scan selectivity by the µ of each
// extension step (Section 5.2, estimate 1).
func (c *Catalogue) EstimateCardinality(q *query.Graph) float64 {
	n := q.NumVertices()
	if n < 2 || len(q.Edges) == 0 {
		return 0
	}
	// Start from the most selective scan edge.
	bestEdge, bestCount := 0, math.Inf(1)
	for i, e := range q.Edges {
		cnt := c.ScanCount(e.Label, q.Vertices[e.From].Label, q.Vertices[e.To].Label)
		if cnt < bestCount {
			bestEdge, bestCount = i, cnt
		}
	}
	e0 := q.Edges[bestEdge]
	card := bestCount
	mask := query.Bit(e0.From) | query.Bit(e0.To)
	sizes := make([]float64, len(q.Edges))
	for card > 0 && mask != query.AllMask(n) {
		// Greedily extend by the vertex with the most connections to the
		// current mask (maximally constrained first, as a sampling plan
		// would).
		next, nextDeg := -1, -1
		for v := 0; v < n; v++ {
			if mask&query.Bit(v) != 0 {
				continue
			}
			if d := q.NumEdgesBetween(mask, v); d > nextDeg {
				next, nextDeg = v, d
			}
		}
		if next < 0 || nextDeg == 0 {
			return 0 // disconnected query
		}
		mu, _ := c.ExtendStats(q, mask, next, sizes[:nextDeg])
		card *= mu
		mask |= query.Bit(next)
	}
	return card
}
