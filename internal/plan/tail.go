package plan

import (
	"math/bits"

	"graphflow/internal/graph"
	"graphflow/internal/query"
)

// Tail is the factorized tail of a pipeline (the paper's Section 10
// factorization direction; the grouped, per-separator representation of
// Nguyen et al.'s LogicBlox engine and of a GHD's bags joined at their
// separators). After a prefix P of the pipeline's chain, the remaining
// query vertices split into the connected components of Q − P. A
// component's matches above a prefix row depend only on its separator,
// the prefix vertices it touches, so the matches above the row are the
// product of the components' matches, and each component's count can be
// cached on its separator's values. A one-vertex component is a leaf: its
// matches are one extension set.
type Tail struct {
	// Len is the number of trailing E/I operators the tail covers; 0 means
	// the pipeline has no factorizable tail.
	Len   int
	n     int
	comps [query.MaxVertices]Component
}

// Component is one connected component of a tail's vertices.
type Component struct {
	// First and Len place the component's operators in the tail: positions
	// First to First+Len-1 in chain order, position 0 being the tail's first
	// operator. A component's operators are always consecutive.
	First, Len int
	// Vertices are the component's query vertices; Separator the prefix
	// vertices its operators read.
	Vertices, Separator query.Mask
	// Twin is the index of an earlier component identical to this one over
	// the same separator, whose count this one shares on every prefix row;
	// -1 if there is none. Only components of two or more vertices are
	// paired: a leaf's set is one cached lookup.
	Twin int
	// PrefixTwin marks a component identical, over the pipeline's scan
	// source alone, to the prefix's own part above that vertex. Its count
	// on a prefix row is then the number of prefix rows that carry the same
	// scan source, which a counting run reads off the run of those rows
	// (they are consecutive) without evaluating the component at all.
	PrefixTwin bool
}

// Components returns the tail's components in chain order.
func (t *Tail) Components() []Component { return t.comps[:t.n] }

// Leaves reports whether every component of the tail is a single vertex:
// the tail is a star of leaves hanging off the prefix.
func (t *Tail) Leaves() bool { return t.n == t.Len }

// prefixTwins reports whether some component is a PrefixTwin.
func (t *Tail) prefixTwins() bool {
	for _, c := range t.Components() {
		if c.PrefixTwin {
			return true
		}
	}
	return false
}

// TailOf sets t to the factorized tail of the pipeline ending at n, a
// plan for q: the longest run of n's trailing E/I operators that splits into
// consecutive components, where every component of two or more vertices
// is keyed on a prefix of the pipeline's layout (its separator's values
// then repeat on consecutive rows, so its cache serves them), and the
// tail does more than enumerate: it is all leaves, or has two components,
// or its one component's separator is smaller than the prefix. When
// prefixTwins is set, a shorter tail that has a PrefixTwin component
// wins over a longer one without: such a component costs nothing to
// count. (A caller that splits the rows of one scan source across
// different tails, as the adaptive router does, passes false.) The
// optimizer finds the tail of every full plan it prices, so t is the
// caller's, and nothing is allocated.
func TailOf(t *Tail, q *query.Graph, n Node, prefixTwins bool) {
	t.Len, t.n = 0, 0
	m := 0 // trailing operators
	cur := n
	for {
		ext, ok := cur.(*Extend)
		if !ok {
			break
		}
		m++
		cur = ext.Child
	}
	if m == 0 {
		return
	}
	f := tailFinder{q: q, out: n.Out(), src: -1, prefixTwins: prefixTwins}
	for f.src < 0 {
		switch op := cur.(type) {
		case *Scan:
			f.src = op.SrcVertex
		case *Extend:
			cur = op.Child
		case *HashJoin:
			cur = op.Probe
		default:
			return
		}
	}
	for _, e := range q.Edges {
		f.nbr[e.From] |= query.Bit(e.To)
		f.nbr[e.To] |= query.Bit(e.From)
		if e.Label == graph.WildcardLabel {
			f.wild |= query.Bit(e.From) | query.Bit(e.To)
		}
	}
	// The last leaves operators are pairwise non-adjacent: every tail of
	// them is one, all leaves. Only a longer one can hold a component of
	// two or more vertices, so only those are searched.
	leaves, within := 0, query.Mask(0)
	for ; leaves < m; leaves++ {
		v := f.out[len(f.out)-1-leaves]
		if f.nbr[v]&within != 0 {
			break
		}
		within |= query.Bit(v)
	}
	best, holds := leaves, 0 // holds: the tail t holds, 0 for none
	for l := m; l > leaves; l-- {
		if !f.tailAt(l, t) {
			holds = 0
			continue
		}
		if !prefixTwins || t.prefixTwins() {
			return
		}
		best, holds = max(best, l), l
		if 2*l < len(f.out)-1 {
			// A PrefixTwin has one vertex fewer than the prefix, and no
			// shorter tail holds one that large.
			break
		}
	}
	if holds != best {
		f.tailAt(best, t)
	}
}

// tailFinder is what TailOf knows of a pipeline while it tries its cuts.
type tailFinder struct {
	q   *query.Graph
	out []int // the pipeline's layout, slot -> query vertex
	src int   // the scan source
	// nbr[v] are v's neighbours, wild the vertices on an edge of any label.
	nbr         [query.MaxVertices]query.Mask
	wild        query.Mask
	prefixTwins bool
}

// tailAt fills t with the tail of the last l slots of the layout and
// reports whether it is one (see TailOf); t holds garbage when it is not.
func (f *tailFinder) tailAt(l int, t *Tail) bool {
	t.Len, t.n = l, 0
	out := f.out
	base := len(out) - l
	var prefix, tail query.Mask
	for i, v := range out {
		if i < base {
			prefix |= query.Bit(v)
		} else {
			tail |= query.Bit(v)
		}
	}
	for p := 0; p < l; {
		comp := component(&f.nbr, out[base+p], tail)
		size := bits.OnesCount32(comp)
		if p+size > l {
			return false
		}
		sep := query.Mask(0)
		for i := p; i < p+size; i++ {
			v := out[base+i]
			if comp&query.Bit(v) == 0 {
				return false // the component's operators are not consecutive
			}
			sep |= f.nbr[v]
		}
		sep &= prefix
		if size > 1 && !layoutPrefix(sep, out) {
			return false // not keyed on a prefix of the layout
		}
		c := &t.comps[t.n]
		c.First, c.Len, c.Vertices, c.Separator, c.Twin, c.PrefixTwin = p, size, comp, sep, -1, false
		t.n++
		p += size
	}
	if first := &t.comps[0]; t.n == 1 && first.Len > 1 && first.Separator == prefix {
		return false // one component keyed on every prefix row: plain enumeration
	}
	// Wildcard edges read merged adjacency runs that may repeat a
	// neighbour, and two differently shaped evaluations of isomorphic
	// patterns need not repeat it equally often: no count is shared
	// across them.
	part := prefix &^ query.Bit(f.src)
	for i := range t.Components() {
		c := &t.comps[i]
		if c.Len < 2 || c.Vertices&f.wild != 0 {
			continue
		}
		if f.prefixTwins && c.Separator == query.Bit(f.src) && c.Len == bits.OnesCount32(part) &&
			part&f.wild == 0 && isoOver(f.q, c.Separator, part, c.Vertices) {
			c.PrefixTwin = true
			continue
		}
		for j := range i {
			d := &t.comps[j]
			if d.Twin < 0 && !d.PrefixTwin && d.Separator == c.Separator && d.Len == c.Len &&
				d.Vertices&f.wild == 0 && isoOver(f.q, c.Separator, d.Vertices, c.Vertices) {
				c.Twin = j
				break
			}
		}
	}
	return true
}

// layoutPrefix reports whether sep is the set of the first |sep| vertices
// of layout out: rows that agree on it are consecutive in chain order.
func layoutPrefix(sep query.Mask, out []int) bool {
	for i := range bits.OnesCount32(sep) {
		if sep&query.Bit(out[i]) == 0 {
			return false
		}
	}
	return true
}

// component returns the connected component of v among the vertices of
// within.
func component(nbr *[query.MaxVertices]query.Mask, v int, within query.Mask) query.Mask {
	reached := query.Bit(v)
	for frontier := reached; frontier != 0; {
		u := bits.TrailingZeros32(frontier)
		frontier &^= query.Bit(u)
		fresh := nbr[u] & within &^ reached
		reached |= fresh
		frontier |= fresh
	}
	return reached
}

// isoOver reports whether the subpatterns q induces on sep ∪ a and on
// sep ∪ b are isomorphic under a map that fixes every vertex of sep and
// takes a onto b, vertex labels, edge directions and edge labels kept.
// Their matches over one assignment of sep are then equally many.
func isoOver(q *query.Graph, sep, a, b query.Mask) bool {
	if a&b != 0 || bits.OnesCount32(a) != bits.OnesCount32(b) || edgesTouching(q, a, sep|a) != edgesTouching(q, b, sep|b) {
		return false
	}
	var to [query.MaxVertices]int // the map, on sep and the vertices of a mapped so far
	for v := range to {
		to[v] = v
	}
	var av [query.MaxVertices]int
	k := 0
	for m := a; m != 0; m &= m - 1 {
		av[k] = bits.TrailingZeros32(m)
		k++
	}
	var assign func(i int, done, used query.Mask) bool
	assign = func(i int, done, used query.Mask) bool {
		if i == k {
			return true
		}
		x := av[i]
		for cand := b &^ used; cand != 0; cand &= cand - 1 {
			y := bits.TrailingZeros32(cand)
			if q.Vertices[x].Label != q.Vertices[y].Label {
				continue
			}
			to[x] = y
			if edgesMap(q, x, sep|done|query.Bit(x), &to) && assign(i+1, done|query.Bit(x), used|query.Bit(y)) {
				return true
			}
		}
		return false
	}
	return assign(0, 0, 0)
}

// edgesTouching counts the query edges inside within with an endpoint in
// mask.
func edgesTouching(q *query.Graph, mask, within query.Mask) int {
	n := 0
	for _, e := range q.Edges {
		f, t := query.Bit(e.From), query.Bit(e.To)
		if (f|t)&mask != 0 && f&within != 0 && t&within != 0 {
			n++
		}
	}
	return n
}

// edgesMap reports whether every query edge between x and the vertices
// of mapped has an image under to among q's edges.
func edgesMap(q *query.Graph, x int, mapped query.Mask, to *[query.MaxVertices]int) bool {
	for _, e := range q.Edges {
		if (e.From != x && e.To != x) || mapped&query.Bit(e.From) == 0 || mapped&query.Bit(e.To) == 0 {
			continue
		}
		found := false
		for _, f := range q.Edges {
			if f.From == to[e.From] && f.To == to[e.To] && f.Label == e.Label {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
