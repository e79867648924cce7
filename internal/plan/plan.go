// Package plan defines the physical query plans of Section 3.1 and 4.1:
// rooted trees of SCAN, EXTEND/INTERSECT (E/I) and HASH-JOIN operators.
// Leaves match a single query edge; an internal node with one child extends
// its child's matches by one query vertex via a multiway intersection; an
// internal node with two children joins its children's matches on their
// common query vertices. Every node is labelled with a projection of the
// query onto a subset of query vertices (the projection constraint).
package plan

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"graphflow/internal/graph"
	"graphflow/internal/query"
)

// Descriptor describes one adjacency list an E/I operator intersects: the
// list of the vertex at tuple slot TupleIdx, in direction Dir, restricted to
// edge label EdgeLabel (paper Section 3.1: the (i, dir, le) triple).
type Descriptor struct {
	TupleIdx  int
	Dir       graph.Direction
	EdgeLabel graph.Label
}

// String implements fmt.Stringer.
func (d Descriptor) String() string {
	if d.EdgeLabel != 0 {
		return fmt.Sprintf("(%d,%s,%d)", d.TupleIdx, d.Dir, d.EdgeLabel)
	}
	return fmt.Sprintf("(%d,%s)", d.TupleIdx, d.Dir)
}

// Node is a plan operator. Every node reports its output tuple layout: a
// slice mapping tuple slot -> query vertex index.
type Node interface {
	// Out returns the output tuple layout (slot -> query vertex index).
	Out() []int
	// Children returns the child operators (0 for Scan, 1 for Extend, 2 for
	// HashJoin).
	Children() []Node
	fmt.Stringer
}

// Scan matches a single query edge by scanning the graph's forward
// adjacency lists restricted to the edge and endpoint labels. Output layout
// is [SrcVertex, DstVertex].
type Scan struct {
	SrcVertex, DstVertex int // query vertex indices
	EdgeLabel            graph.Label
	SrcLabel, DstLabel   graph.Label
	out                  [2]int
}

// NewScan builds a SCAN for the given query edge.
func NewScan(q *query.Graph, e query.Edge) *Scan {
	return &Scan{
		SrcVertex: e.From,
		DstVertex: e.To,
		EdgeLabel: e.Label,
		SrcLabel:  q.Vertices[e.From].Label,
		DstLabel:  q.Vertices[e.To].Label,
		out:       [2]int{e.From, e.To},
	}
}

// Out implements Node.
func (s *Scan) Out() []int { return s.out[:] }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// String implements fmt.Stringer.
func (s *Scan) String() string {
	return fmt.Sprintf("SCAN(a%d->a%d, el=%d)", s.SrcVertex+1, s.DstVertex+1, s.EdgeLabel)
}

// Extend is the EXTEND/INTERSECT operator: it extends each input tuple by
// one query vertex, computed as the intersection of the adjacency lists
// named by Descriptors, restricted to vertices labelled TargetLabel.
type Extend struct {
	Child        Node
	Descriptors  []Descriptor
	TargetVertex int // query vertex index of the new vertex
	TargetLabel  graph.Label
	out          []int
}

// NewExtend builds an E/I node extending child by query vertex target,
// using one descriptor per query edge between target and the child's
// vertices.
func NewExtend(q *query.Graph, child Node, target int) (*Extend, error) {
	ext := &Extend{}
	if err := FillExtend(ext, q, child, target); err != nil {
		return nil, err
	}
	return ext, nil
}

// FillExtend makes e the E/I node NewExtend(q, child, target) would
// build, in place: it reuses e's descriptors and layout when they are
// large enough, so a search that prices every ordering prefix on one
// node per depth allocates nothing once each depth has held its widest
// operator. A node FillExtend reuses must not be kept: CopyOnto copies
// it out.
func FillExtend(e *Extend, q *query.Graph, child Node, target int) error {
	childOut := child.Out()
	var slotOf [32]int // query vertex -> child tuple slot, for vertices in mask
	mask := query.Mask(0)
	for slot, v := range childOut {
		slotOf[v] = slot
		mask |= query.Bit(v)
	}
	if mask&query.Bit(target) != 0 {
		return fmt.Errorf("plan: target a%d already matched", target+1)
	}
	// The descriptors are gathered on the stack, so a new node's
	// descriptors and layout are each allocated once, at final size.
	var buf [8]Descriptor
	descs := buf[:0]
	for _, e := range q.Edges {
		switch {
		case e.From == target && mask&query.Bit(e.To) != 0:
			// target -> existing: follow existing vertex's backward list.
			descs = append(descs, Descriptor{TupleIdx: slotOf[e.To], Dir: graph.Backward, EdgeLabel: e.Label})
		case e.To == target && mask&query.Bit(e.From) != 0:
			descs = append(descs, Descriptor{TupleIdx: slotOf[e.From], Dir: graph.Forward, EdgeLabel: e.Label})
		}
	}
	if len(descs) == 0 {
		return fmt.Errorf("plan: target a%d not adjacent to child", target+1)
	}
	if cap(e.Descriptors) < len(descs) {
		e.Descriptors = make([]Descriptor, 0, len(descs))
	}
	if cap(e.out) <= len(childOut) {
		e.out = make([]int, 0, len(childOut)+1)
	}
	e.Child, e.TargetVertex, e.TargetLabel = child, target, q.Vertices[target].Label
	e.Descriptors = append(e.Descriptors[:0], descs...)
	e.out = append(append(e.out[:0], childOut...), target)
	return nil
}

// CopyOnto returns a copy of e on child, whose layout must be e.Child's,
// with descriptors and a layout of its own: what outlives the reuse of a
// node FillExtend filled. A search copies out every plan it keeps, so a
// copy that fits extendCopy is one allocation, not three.
func (e *Extend) CopyOnto(child Node) *Extend {
	if len(e.Descriptors) > len(extendCopy{}.descs) || len(e.out) > len(extendCopy{}.out) {
		return &Extend{Child: child, Descriptors: slices.Clone(e.Descriptors), TargetVertex: e.TargetVertex,
			TargetLabel: e.TargetLabel, out: slices.Clone(e.out)}
	}
	c := &extendCopy{}
	d, o := len(e.Descriptors), len(e.out)
	c.Extend = Extend{Child: child, Descriptors: c.descs[:d:d], TargetVertex: e.TargetVertex,
		TargetLabel: e.TargetLabel, out: c.out[:o:o]}
	copy(c.descs[:], e.Descriptors)
	copy(c.out[:], e.out)
	return &c.Extend
}

// extendCopy is a copied E/I operator with room for its descriptors and
// layout: an operator of a 6-vertex query reading up to two lists, in
// the 160-byte size class that the three separate allocations of most
// such operators come to, so that the plans a cache holds grow no larger.
type extendCopy struct {
	Extend
	descs [2]Descriptor
	out   [6]int
}

// Out implements Node.
func (e *Extend) Out() []int { return e.out }

// Children implements Node.
func (e *Extend) Children() []Node { return []Node{e.Child} }

// Inherited reports which of e's descriptors its child's extension set
// already covers, as a bitmask over descriptor indices; 0 means e does
// not inherit. e inherits when its child is an E/I operator with at
// least two descriptors, the same target label, and every child
// descriptor (same slot, direction and edge label) among e's own: the
// child's extension set S is then exactly the intersection of those
// lists, every child output row carries one element of S, and e's
// extension set is S ∩ (the lists of the descriptors not covered). The
// vectorized executor carries S downstream instead of re-reading the
// covered lists (exec's carried extension sets), and the optimizer
// prices the operator the same way. The size floor keeps single-list
// extends out: their "set" is an adjacency run the store already owns.
// (An operator has fewer descriptors than query.MaxVertices, so the mask
// always fits.)
func (e *Extend) Inherited() uint32 {
	up, ok := e.Child.(*Extend)
	if !ok || len(up.Descriptors) < 2 || len(up.Descriptors) > len(e.Descriptors) ||
		up.TargetLabel != e.TargetLabel {
		return 0
	}
	covered := uint32(0)
	for _, u := range up.Descriptors {
		found := false
		for i, d := range e.Descriptors {
			if d == u {
				covered |= 1 << uint(i)
				found = true
				break
			}
		}
		if !found {
			return 0
		}
	}
	return covered
}

// String implements fmt.Stringer. An inheriting operator (see Inherited)
// renders the covered descriptors as one ↑ — the set handed up by its
// child — followed by the lists it still reads.
func (e *Extend) String() string {
	covered := e.Inherited()
	var ds []string
	if covered != 0 {
		ds = append(ds, "↑")
	}
	for i, d := range e.Descriptors {
		if covered&(1<<uint(i)) == 0 {
			ds = append(ds, d.String())
		}
	}
	return fmt.Sprintf("EXTEND(a%d <- %s)", e.TargetVertex+1, strings.Join(ds, "∩"))
}

// HashJoin joins the matches of Build and Probe on their common query
// vertices. Output layout is the probe layout followed by the build-only
// vertices in build-layout order.
type HashJoin struct {
	Build, Probe Node
	// JoinVertices are the query vertices common to both sides.
	JoinVertices []int
	out          []int
}

// NewHashJoin builds a HASH-JOIN of two subplans. The sides must overlap on
// at least one query vertex and neither may cover the other.
func NewHashJoin(build, probe Node) (*HashJoin, error) {
	bm, pm := CoverMask(build), CoverMask(probe)
	common := bm & pm
	if common == 0 {
		return nil, fmt.Errorf("plan: hash join sides share no vertices")
	}
	if bm|pm == bm || bm|pm == pm {
		return nil, fmt.Errorf("plan: hash join side covers the other")
	}
	hj := &HashJoin{
		Build:        build,
		Probe:        probe,
		JoinVertices: make([]int, 0, bits.OnesCount32(common)),
		out:          make([]int, 0, bits.OnesCount32(bm|pm)),
	}
	for _, v := range build.Out() {
		if common&query.Bit(v) != 0 {
			hj.JoinVertices = append(hj.JoinVertices, v)
		}
	}
	hj.out = append(hj.out, probe.Out()...)
	for _, v := range build.Out() {
		if common&query.Bit(v) == 0 {
			hj.out = append(hj.out, v)
		}
	}
	return hj, nil
}

// Out implements Node.
func (h *HashJoin) Out() []int { return h.out }

// Children implements Node.
func (h *HashJoin) Children() []Node { return []Node{h.Build, h.Probe} }

// String implements fmt.Stringer.
func (h *HashJoin) String() string {
	vs := make([]string, len(h.JoinVertices))
	for i, v := range h.JoinVertices {
		vs[i] = fmt.Sprintf("a%d", v+1)
	}
	return fmt.Sprintf("HASHJOIN(on %s)", strings.Join(vs, ","))
}

// CoverMask returns the set of query vertices matched by the subplan.
func CoverMask(n Node) query.Mask {
	m := query.Mask(0)
	for _, v := range n.Out() {
		m |= query.Bit(v)
	}
	return m
}

// Plan wraps a root operator with the query it answers.
type Plan struct {
	Query *query.Graph
	Root  Node
	// EstimatedCost and EstimatedCardinality are filled by the optimizer
	// (i-cost units; expected number of matches).
	EstimatedCost        float64
	EstimatedCardinality float64
}

// Describe renders the plan tree, one operator per line, children indented.
func (p *Plan) Describe() string {
	var sb strings.Builder
	var rec func(n Node, depth int)
	rec = func(n Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(n.String())
		sb.WriteByte('\n')
		for _, c := range n.Children() {
			rec(c, depth+1)
		}
	}
	rec(p.Root, 0)
	return sb.String()
}

// Validate checks structural invariants: layouts are consistent, the root
// covers the whole query, and every node's vertex set induces a connected
// projection (the projection constraint of Section 4.1 is enforced by
// construction: nodes always carry *all* induced query edges because E/I
// descriptors and scans are derived from the query itself).
func (p *Plan) Validate() error {
	nbr := p.Query.Neighbors()
	if err := p.validate(p.Root, &nbr); err != nil {
		return err
	}
	if CoverMask(p.Root) != query.AllMask(p.Query.NumVertices()) {
		return fmt.Errorf("plan: root does not cover the query")
	}
	return nil
}

// validate checks the layouts and projections of n's subtree for
// Validate; nbr are the query's neighbour sets.
func (p *Plan) validate(n Node, nbr *[32]query.Mask) error {
	seen := query.Mask(0)
	for _, v := range n.Out() {
		if v < 0 || v >= p.Query.NumVertices() {
			return fmt.Errorf("plan: slot references vertex %d out of range", v)
		}
		if seen&query.Bit(v) != 0 {
			return fmt.Errorf("plan: vertex a%d appears twice in layout", v+1)
		}
		seen |= query.Bit(v)
	}
	if !query.Connected(nbr[:], seen) {
		return fmt.Errorf("plan: node %s covers a disconnected projection", n)
	}
	switch op := n.(type) {
	case *Extend:
		return p.validate(op.Child, nbr)
	case *HashJoin:
		if err := p.validate(op.Build, nbr); err != nil {
			return err
		}
		return p.validate(op.Probe, nbr)
	}
	return nil
}

// Kind classifies the plan as "wco", "bj" or "hybrid" following the paper's
// Figure 7 legend (W/B/H): no hash join means WCO; hash joins with only
// single-list extensions (which are binary-join-convertible lookups) means
// BJ; hash joins plus genuine multiway intersections means hybrid.
func (p *Plan) Kind() string {
	hasJoin, hasIntersect := false, false
	Walk(p.Root, func(n Node) {
		switch op := n.(type) {
		case *HashJoin:
			hasJoin = true
		case *Extend:
			if len(op.Descriptors) > 1 {
				hasIntersect = true
			}
		}
	})
	switch {
	case !hasJoin:
		return "wco"
	case !hasIntersect:
		return "bj"
	default:
		return "hybrid"
	}
}

// Walk visits every node of the subtree in pre-order.
func Walk(n Node, fn func(Node)) {
	fn(n)
	for _, c := range n.Children() {
		Walk(c, fn)
	}
}
