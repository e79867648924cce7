package catalogue

import (
	"math"
	"math/bits"
	"slices"

	"graphflow/internal/query"
)

// Estimates are Section 5.2's estimates for one query, each computed
// once: a subquery's cardinality (estimate 1), the statistics of
// extending a subquery by one vertex, and the catalogue entry lookups
// both rest on — the missing-entry rule looks the same reduced base up
// for every base that holds it, and a planner asks for the statistics of
// many bases. The optimizer prices every plan on them and
// EstimateCardinality reports them, so a plan's estimated cardinality and
// the catalogue's are one number.
type Estimates struct {
	c     *Catalogue
	q     *query.Graph
	nbr   [32]query.Mask           // q.Neighbors()
	card  query.Memo[float64]      // by mask
	exts  query.Memo[extension]    // by (mask, v)
	sizes []float64                // every extension's list sizes, one slab
	found query.Memo[lookupResult] // by (keep, v)
	lists []float64                // the list sizes of every lookupResult, one slab
}

// ExtensionEstimate is the catalogue's estimate for extending a subquery
// by one vertex: the average number of extensions µ, each descriptor's
// average adjacency-list size in q.Edges order (the order plan.NewExtend
// derives descriptors in), and the sizes' sum, Lists — Equation 1's
// i-cost of the E/I per input row.
type ExtensionEstimate struct {
	Mu, Lists float64
	Sizes     []float64
}

// extension is a remembered ExtensionEstimate: its sizes are the n from
// at in the Estimates' sizes.
type extension struct {
	mu, lists float64
	at, n     int32
}

// lookupResult is one remembered lookup: the trusted entry's µ and its
// list sizes in q.Edges order (from at in the Estimates' lists), or ok
// false for none.
type lookupResult struct {
	mu float64
	at int32
	ok bool
}

// Estimates returns q's estimates on c, none computed yet, with room for
// the list sizes of most queries' extensions (a 6-vertex, 8-edge query
// asks for ≈ 130) and lookups.
func (c *Catalogue) Estimates(q *query.Graph) Estimates {
	return Estimates{
		c:     c,
		q:     q,
		nbr:   q.Neighbors(),
		sizes: make([]float64, 0, 16*len(q.Edges)),
		lists: make([]float64, 0, 8*len(q.Edges)),
	}
}

// Cardinality estimates the number of matches of the projection of q
// onto the connected mask (Section 5.2, estimate 1): a vertex's count by
// label, an edge's scan count, and beyond two vertices a deterministic
// extension chain whose µ values multiply out.
func (e *Estimates) Cardinality(mask query.Mask) float64 {
	if card, ok := e.card.Get(mask, -1); ok {
		return card
	}
	var out float64
	switch bits.OnesCount32(mask) {
	case 1:
		out = e.c.VertexCountByLabel(e.q.Vertices[bits.TrailingZeros32(mask)].Label)
	case 2:
		for _, ed := range e.q.Edges {
			if mask == query.Bit(ed.From)|query.Bit(ed.To) {
				out = e.c.ScanCount(ed.Label, e.q.Vertices[ed.From].Label, e.q.Vertices[ed.To].Label)
				break
			}
		}
	default:
		// Remove the most-connected removable vertex: its µ is estimated
		// from the largest base, so the chain stays maximally informed.
		bestV, bestDeg := -1, -1
		for v := 0; v < e.q.NumVertices(); v++ {
			rest := mask &^ query.Bit(v)
			if rest == mask || !query.Connected(e.nbr[:], rest) {
				continue
			}
			// v ascends, so the lowest index wins among equal degrees.
			if d := bits.OnesCount32(e.nbr[v] & rest); d > bestDeg {
				bestV, bestDeg = v, d
			}
		}
		if bestV >= 0 {
			rest := mask &^ query.Bit(bestV)
			out = e.Cardinality(rest) * e.Extension(rest, bestV).Mu
		}
	}
	e.card.Put(mask, -1, out)
	return out
}

// Extension returns the catalogue's estimate for extending the subquery
// on mask by vertex v (extendStats, memoized). Its Sizes are shared:
// callers read them and keep nothing.
func (e *Estimates) Extension(mask query.Mask, v int) ExtensionEstimate {
	st, ok := e.exts.Get(mask, v)
	if !ok {
		// One size per descriptor: a valid query may have parallel
		// edges, which the optimizer rejects but EstimateCardinality
		// estimates.
		n := e.q.NumEdgesBetween(mask, v)
		st = extension{at: int32(len(e.sizes)), n: int32(n)}
		e.sizes = slices.Grow(e.sizes, n)[:int(st.at)+n]
		sizes := e.sizes[st.at:]
		st.mu, _ = e.c.extendStats(e.q, mask, v, sizes, e)
		for _, s := range sizes {
			st.lists += s
		}
		e.exts.Put(mask, v, st)
	}
	return ExtensionEstimate{Mu: st.mu, Lists: st.lists, Sizes: e.sizes[st.at : st.at+st.n]}
}

// extendStats estimates the statistics for extending the projection of q
// onto base by vertex v of q: the extension's descriptors are q's edges
// between v and base. sizes must have one element per descriptor and
// receives each one's average adjacency-list size, in q.Edges order; the
// results are the average number of extensions µ and whether a catalogue
// entry (direct or reduced) was found. Nothing is projected or copied:
// keys are computed on q in place. Lookups are remembered in e unless e
// is nil.
//
// Resolution order (Section 5.2):
//  1. exact catalogue entry;
//  2. if base is larger than H, the minimum-µ estimate over all reduced
//     entries obtained by removing (|base|-H)-vertex subsets and their
//     descriptors;
//  3. graph-wide average list sizes with an independence assumption for µ.
//
//gf:noalloc
func (c *Catalogue) extendStats(q *query.Graph, base query.Mask, v int, sizes []float64, e *Estimates) (float64, bool) {
	k := bits.OnesCount32(base)
	// Only bases of at most H vertices can have entries, and skipping the
	// direct lookup for larger bases also avoids canonicalizing large
	// graphs (factorial cost). Every descriptor of a direct hit is
	// anchored in base, so its lists are sizes.
	if k <= c.Cfg.H {
		if mu, ok := c.lookup(q, base, v, sizes, e); ok {
			return mu, true
		}
	}
	// Missing entry: reduce the base by removing vertex subsets until a
	// recorded entry matches (Section 5.2's rule, generalised: bases at or
	// below H can also miss when construction was budget-bounded, so keep
	// shrinking toward well-sampled small patterns before giving up).
	for target := min(k-1, c.Cfg.H); target >= 1; target-- {
		if mu, ok := c.reducedStats(q, base, v, k-target, sizes, e); ok {
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
// est, unless nil, answers a lookup it remembers and remembers a new one.
func (c *Catalogue) lookup(q *query.Graph, keep query.Mask, v int, lists []float64, est *Estimates) (float64, bool) {
	if est != nil {
		if f, seen := est.found.Get(keep, v); seen {
			if f.ok {
				copy(lists, est.lists[f.at:])
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
	if est != nil {
		est.remember(keep, v, mu, ok, lists)
	}
	return mu, ok
}

// remember keeps what lookup found for (keep, v).
func (e *Estimates) remember(keep query.Mask, v int, mu float64, ok bool, lists []float64) {
	f := lookupResult{mu: mu, at: int32(len(e.lists)), ok: ok}
	if ok {
		e.lists = append(e.lists, lists...)
	}
	e.found.Put(keep, v, f)
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
func (c *Catalogue) reducedStats(q *query.Graph, base query.Mask, v, removeCount int, sizes []float64, est *Estimates) (float64, bool) {
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
				if mu, ok := c.lookup(q, keep, v, buf[:kept], est); ok && mu < bestMu {
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

// EstimateCardinality estimates |Q| (Section 5.2, estimate 1) as the
// optimizer prices q's plans: the Cardinality of the whole of q's
// canonical form, so every spelling of q gets the same number, the one
// its plan carries as EstimatedCardinality. An invalid query (see
// query.Graph.Validate) estimates 0.
func (c *Catalogue) EstimateCardinality(q *query.Graph) float64 {
	if q.Validate() != nil {
		return 0
	}
	canon, _ := q.Canonical()
	est := c.Estimates(canon)
	return est.Cardinality(query.AllMask(canon.NumVertices()))
}
