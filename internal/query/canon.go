package query

import (
	"math/bits"
	"slices"
	"sort"
	"strconv"

	"graphflow/internal/graph"
)

// Code is a packed canonical code, directly a map key: distinct for
// non-isomorphic graphs (respecting vertex labels, edge labels, edge
// directions and the optional target flag) and, up to maxCanonPerms
// candidate orderings, identical for isomorphic ones. Above that bound
// it is sound only: equal codes still mean isomorphic graphs, but two
// spellings of one graph may get different codes. The bytes are the
// canonical form itself:
//
//	byte 0            vertex count n, with codeTargetBit set when the last
//	                  vertex is a flagged target
//	2 bytes × n       vertex labels in canonical order, big-endian
//	4 bytes × |E|     edges sorted ascending, each from<<21 | to<<16 | label
//	                  over canonical indices, big-endian
//
// The target flag is a bit of its own: every graph.Label value stays
// available to real vertices. String renders a code readably.
type Code string

const (
	codeTargetBit = 0x80
	codeFromShift = 21
	codeToShift   = 16
)

// NoTarget is the target argument of AppendCanonicalCode for a graph
// without a flagged vertex.
const NoTarget = -1

// canonStackEdges is the edge count up to which the kernel's buffers
// live on the stack — twice what a complete 6-vertex digraph has.
const canonStackEdges = 64

// maxCanonPerms bounds the candidate orderings the kernel enumerates;
// above it the kernel encodes its first ordering only. Up to six
// vertices (6! = 720) the bound cannot be reached.
const maxCanonPerms = 4096

// canonEdge is a query edge inside the projected subgraph, narrowed to
// what a candidate encoding reads.
type canonEdge struct {
	from, to uint8
	label    graph.Label
}

// AppendCanonicalCode appends to dst the canonical code of the subgraph
// of q induced by mask and returns the extended slice. target, when not
// NoTarget, names a vertex of mask to flag: it is told apart from every
// other vertex whatever its label and becomes the last canonical vertex
// (a catalogue key flags the vertex an extension adds). perm, when not
// nil, receives the canonical renumbering: perm[v] is the canonical
// index of vertex v for every v in mask; other elements are left alone.
//
// The code is the minimum, over vertex orderings, of the sorted edge
// list written in canonical indices. Only orderings that keep an
// isomorphism invariant — (target flag, label, out-degree, in-degree) —
// non-decreasing are tried, since isomorphic graphs have the same
// invariants and so the same candidate set; vertices are permuted only
// inside classes of equal invariant. Every candidate is packed into
// integers and compared as integers; nothing is formatted and nothing is
// allocated per candidate. The candidates number the product of the
// class-size factorials, n! for a vertex-transitive graph. When that
// product exceeds maxCanonPerms (a 30-cycle has 30!), the first ordering
// — invariant-sorted, ascending vertex index within a class — is encoded
// as it stands: the code still spells out the whole graph, so it stays
// sound, but it is no longer exact (see Code).
//
//gf:noalloc
func (q *Graph) AppendCanonicalCode(dst []byte, mask Mask, target int, perm []int) []byte {
	var (
		inv   [MaxVertices]uint64 // invariant of vertex v
		order [MaxVertices]uint8  // candidate: canonical index -> vertex
		pos   [MaxVertices]uint32 // candidate: vertex -> canonical index
		best  [MaxVertices]uint8  // the minimising candidate
	)
	n := 0
	for m := mask; m != 0; m &= m - 1 {
		v := bits.TrailingZeros32(m)
		inv[v] = uint64(q.Vertices[v].Label) << 32
		order[n] = uint8(v) // ascending: the first permutation of every class
		n++
	}
	if n == 0 {
		return dst
	}
	if target != NoTarget {
		inv[target] |= 1 << 48
	}

	var edgeStack [canonStackEdges]canonEdge
	edges := edgeStack[:0]
	for _, e := range q.Edges {
		if mask&Bit(e.From) == 0 || mask&Bit(e.To) == 0 {
			continue
		}
		inv[e.From] += 1 << 16
		inv[e.To]++
		edges = append(edges, canonEdge{uint8(e.From), uint8(e.To), e.Label})
	}
	var curStack, leastStack [canonStackEdges]uint32
	cur, least := curStack[:], leastStack[:]
	if len(edges) > canonStackEdges {
		cur = make([]uint32, len(edges))   //gf:allowalloc once per call, and only past canonStackEdges edges (as the append above)
		least = make([]uint32, len(edges)) //gf:allowalloc as above
	}
	cur, least = cur[:len(edges)], least[:len(edges)]

	// Stable insertion sort by invariant: classes become contiguous and
	// each starts in ascending vertex order.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && inv[order[j]] < inv[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}

	// Six vertices or fewer cannot exceed the bound, so catalogue keys
	// skip the count.
	exhaustive := n <= 6 || classOrderings(order[:n], &inv) <= maxCanonPerms
	for first := true; ; first = false {
		for i := 0; i < n; i++ {
			pos[order[i]] = uint32(i)
		}
		for i, e := range edges {
			cur[i] = pos[e.from]<<codeFromShift | pos[e.to]<<codeToShift | uint32(e.label)
		}
		slices.Sort(cur)
		if first || slices.Compare(cur, least) < 0 {
			copy(least, cur)
			best = order
		}
		if !exhaustive || !nextClassOrdering(order[:n], &inv) {
			break
		}
	}

	hdr := byte(n)
	if target != NoTarget {
		hdr |= codeTargetBit
	}
	dst = append(dst, hdr)
	for i := 0; i < n; i++ {
		l := q.Vertices[best[i]].Label
		dst = append(dst, byte(l>>8), byte(l))
		if perm != nil {
			perm[best[i]] = i
		}
	}
	for _, c := range least {
		dst = append(dst, byte(c>>24), byte(c>>16), byte(c>>8), byte(c))
	}
	return dst
}

// classOrderings returns how many orderings nextClassOrdering visits from
// the invariant-sorted order — the product of the class-size factorials —
// stopping at the first partial product above maxCanonPerms.
func classOrderings(order []uint8, inv *[MaxVertices]uint64) int {
	perms := 1
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && inv[order[hi]] == inv[order[lo]] {
			hi++
			if perms *= hi - lo; perms > maxCanonPerms {
				return perms
			}
		}
		lo = hi
	}
	return perms
}

// nextClassOrdering advances order to the next ordering that permutes
// vertices only inside runs of equal invariant, odometer fashion: the
// first class steps to its next permutation, and a class that wraps
// around to ascending order carries into the class after it. It reports
// false once every ordering has been visited.
func nextClassOrdering(order []uint8, inv *[MaxVertices]uint64) bool {
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && inv[order[hi]] == inv[order[lo]] {
			hi++
		}
		if nextPermutation(order[lo:hi]) {
			return true
		}
		lo = hi
	}
	return false
}

// nextPermutation rearranges a into the lexicographically next
// permutation, or back into ascending order (reporting false) after the
// last one.
func nextPermutation(a []uint8) bool {
	i := len(a) - 2
	for i >= 0 && a[i] >= a[i+1] {
		i--
	}
	if i < 0 {
		slices.Reverse(a)
		return false
	}
	j := len(a) - 1
	for a[j] <= a[i] {
		j--
	}
	a[i], a[j] = a[j], a[i]
	slices.Reverse(a[i+1:])
	return true
}

// CanonicalCode returns the canonical code of the whole graph — exact up
// to maxCanonPerms candidate orderings, sound only above (see Code and
// AppendCanonicalCode, which callers on a hot path use directly).
func (q *Graph) CanonicalCode() Code {
	code, _ := q.CanonicalCodeWithPerm()
	return code
}

// CanonicalCodeWithPerm returns the canonical code together with the
// canonical renumbering: perm[oldIdx] = canonical index of vertex oldIdx.
func (q *Graph) CanonicalCodeWithPerm() (Code, []int) {
	n := len(q.Vertices)
	if n == 0 {
		return "", nil
	}
	perm := make([]int, n)
	return Code(q.AppendCanonicalCode(nil, AllMask(n), NoTarget, perm)), perm
}

// Canonical returns q in canonical form — renumbered by the kernel's perm
// (see Renumber) — together with perm, where perm[origIdx] is the
// canonical index of original vertex origIdx. Spellings with equal codes
// get identical graphs, so the form is as exact as CanonicalCode.
func (q *Graph) Canonical() (*Graph, []int) {
	_, perm := q.CanonicalCodeWithPerm()
	return q.Renumber(perm), perm
}

// Key returns q's canonical code as a string.
func (q *Graph) Key() string { return string(q.CanonicalCode()) }

// canonNames are the canonical vertex names, a1 to a30.
var canonNames = func() (names [MaxVertices]string) {
	for i := range names {
		names[i] = "a" + strconv.Itoa(i+1)
	}
	return names
}()

// Renumber returns the copy of q with vertex origIdx mapped to
// inv[origIdx], vertices renamed a1..an, and edges sorted.
func (q *Graph) Renumber(inv []int) *Graph {
	n := len(q.Vertices)
	out := &Graph{Vertices: make([]Vertex, n), Edges: make([]Edge, 0, len(q.Edges))}
	for v, canon := range inv {
		out.Vertices[canon] = Vertex{Name: canonNames[canon], Label: q.Vertices[v].Label}
	}
	for _, e := range q.Edges {
		out.Edges = append(out.Edges, Edge{From: inv[e.From], To: inv[e.To], Label: e.Label})
	}
	sort.Slice(out.Edges, func(i, j int) bool {
		a, b := out.Edges[i], out.Edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Label < b.Label
	})
	return out
}

// String renders the code as its canonical graph: vertex labels in
// canonical order (the flagged target, always last, marked with *), then
// the sorted edges as from>to:label — "0,0,1* 0>1:0 0>2:0 1>2:3".
func (c Code) String() string {
	if len(c) == 0 {
		return ""
	}
	n := int(c[0] &^ codeTargetBit)
	if len(c) < 1+2*n || (len(c)-1-2*n)%4 != 0 {
		return "invalid code " + strconv.Quote(string(c))
	}
	var b []byte
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, uint64(c[1+2*i])<<8|uint64(c[2+2*i]), 10)
	}
	if c[0]&codeTargetBit != 0 {
		b = append(b, '*')
	}
	for off := 1 + 2*n; off < len(c); off += 4 {
		e := uint32(c[off])<<24 | uint32(c[off+1])<<16 | uint32(c[off+2])<<8 | uint32(c[off+3])
		b = append(b, ' ')
		b = strconv.AppendUint(b, uint64(e>>codeFromShift), 10)
		b = append(b, '>')
		b = strconv.AppendUint(b, uint64(e>>codeToShift&(1<<(codeFromShift-codeToShift)-1)), 10)
		b = append(b, ':')
		b = strconv.AppendUint(b, uint64(e&(1<<codeToShift-1)), 10)
	}
	return string(b)
}

// Automorphisms returns all vertex permutations p (p[i] = image of i) that
// map q onto itself respecting labels and directions. Used to deduplicate
// query-vertex orderings that perform identical work (paper Section 3.2.3
// notes equivalent plans arising from query symmetries).
func (q *Graph) Automorphisms() [][]int {
	n := len(q.Vertices)
	edgeSet := make(map[Edge]struct{}, len(q.Edges))
	for _, e := range q.Edges {
		edgeSet[e] = struct{}{}
	}
	var out [][]int
	perm := make([]int, n)
	used := make([]bool, n)
	var rec func(pos int)
	check := func() bool {
		for _, e := range q.Edges {
			if _, ok := edgeSet[Edge{From: perm[e.From], To: perm[e.To], Label: e.Label}]; !ok {
				return false
			}
		}
		return true
	}
	rec = func(pos int) {
		if pos == n {
			if check() {
				out = append(out, append([]int(nil), perm...))
			}
			return
		}
		for img := 0; img < n; img++ {
			if used[img] || q.Vertices[img].Label != q.Vertices[pos].Label {
				continue
			}
			used[img] = true
			perm[pos] = img
			rec(pos + 1)
			used[img] = false
		}
	}
	rec(0)
	return out
}
