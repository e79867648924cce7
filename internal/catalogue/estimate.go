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
	return c.extendStats(q, base, v, sizes, nil)
}

// Lookups remembers what the catalogue's entry lookups found for one
// query: the missing-entry rule looks the same reduced base up for every
// base that holds it, and a planner asks for the statistics of many bases.
// Its ExtendStats is the catalogue's, each (base, v) looked up once.
type Lookups struct {
	c     *Catalogue
	q     *query.Graph
	found query.Memo[lookupResult]
	lists []float64 // the list sizes of every lookupResult, one slab
}

// lookupResult is one remembered lookup: the trusted entry's µ and its
// list sizes in q.Edges order (from at in the Lookups' lists), or ok
// false for none.
type lookupResult struct {
	mu float64
	at int32
	ok bool
}

// Lookups returns an empty memo of c's lookups for q, with room for the
// list sizes of most queries' lookups.
func (c *Catalogue) Lookups(q *query.Graph) Lookups {
	return Lookups{c: c, q: q, lists: make([]float64, 0, 8*len(q.Edges))}
}

// ExtendStats is Catalogue.ExtendStats on l's catalogue and query,
// remembering every lookup it makes in l.
func (l *Lookups) ExtendStats(base query.Mask, v int, sizes []float64) (float64, bool) {
	return l.c.extendStats(l.q, base, v, sizes, l)
}

// extendStats is ExtendStats, remembering its lookups in l unless l is
// nil.
func (c *Catalogue) extendStats(q *query.Graph, base query.Mask, v int, sizes []float64, l *Lookups) (float64, bool) {
	k := bits.OnesCount32(base)
	// Only bases of at most H vertices can have entries, and skipping the
	// direct lookup for larger bases also avoids canonicalizing large
	// graphs (factorial cost). Every descriptor of a direct hit is
	// anchored in base, so its lists are sizes.
	if k <= c.Cfg.H {
		if mu, ok := c.lookup(q, base, v, sizes, l); ok {
			return mu, true
		}
	}
	// Missing entry: reduce the base by removing vertex subsets until a
	// recorded entry matches (Section 5.2's rule, generalised: bases at or
	// below H can also miss when construction was budget-bounded, so keep
	// shrinking toward well-sampled small patterns before giving up).
	for target := min(k-1, c.Cfg.H); target >= 1; target-- {
		if mu, ok := c.reducedStats(q, base, v, k-target, sizes, l); ok {
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

// lookup looks up the trusted entry for extending the projection of q
// onto keep by v through len(lists) descriptors: its µ and whether there
// is one, and then each descriptor's list size in lists, in q.Edges order.
// l, unless nil, answers a lookup it remembers and remembers a new one.
func (c *Catalogue) lookup(q *query.Graph, keep query.Mask, v int, lists []float64, l *Lookups) (float64, bool) {
	if l != nil {
		if f, seen := l.found.Get(keep, v); seen {
			if f.ok {
				copy(lists, l.lists[f.at:])
			}
			return f.mu, f.ok
		}
	}
	var buf [keyStackBytes]byte
	var perm [query.MaxVertices]int
	key := extensionKey(buf[:0], q, keep, v, perm[:])
	e, _ := c.entries.find(key)
	ok := e >= 0 && len(c.entries.listsOf(e)) == len(lists) && c.entries.samples[e] >= minEntrySamples
	mu := 0.0
	if ok {
		mu = c.entries.mu[e]
		i := 0
		for _, d := range q.Edges {
			if _, _, is := descriptorOf(d, keep, v); is {
				lists[i] = c.entries.listsOf(e)[descriptorRank(q, keep, v, &perm, d)]
				i++
			}
		}
	}
	if l != nil {
		l.remember(keep, v, mu, ok, lists)
	}
	return mu, ok
}

// remember keeps what lookup found for (keep, v).
func (l *Lookups) remember(keep query.Mask, v int, mu float64, ok bool, lists []float64) {
	f := lookupResult{mu: mu, at: int32(len(l.lists)), ok: ok}
	if ok {
		l.lists = append(l.lists, lists...)
	}
	l.found.Put(keep, v, f)
}

// fillSizes writes the list size of every descriptor of extending base
// by v into sizes: the entry's for a descriptor anchored in keep (lists,
// in q.Edges order, from lookup on keep), the graph-wide default
// otherwise.
func (c *Catalogue) fillSizes(q *query.Graph, base, keep query.Mask, v int, lists, sizes []float64) {
	i := 0
	for _, e := range q.Edges {
		anchor, dir, ok := descriptorOf(e, base, v)
		if !ok {
			continue
		}
		if keep&query.Bit(anchor) != 0 {
			sizes[i], lists = lists[0], lists[1:]
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
func (c *Catalogue) reducedStats(q *query.Graph, base query.Mask, v, removeCount int, sizes []float64, l *Lookups) (float64, bool) {
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
	nbr := q.Neighbors()

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
		if query.Connected(nbr[:], keep) {
			// Descriptors anchored on surviving vertices stay.
			if kept := q.NumEdgesBetween(keep, v); kept > 0 {
				var buf [query.MaxVertices]float64
				if mu, ok := c.lookup(q, keep, v, buf[:kept], l); ok && mu < bestMu {
					bestMu = mu
					c.fillSizes(q, base, keep, v, buf[:kept], sizes)
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
