package query

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"graphflow/internal/graph"
)

// oracleCanonicalCode is the canonical code as it was computed before
// codes were packed: the minimum, over all n! vertex orders, of a
// rendered "v<idx>:<label>;…;e<from>><to>:<label>;…" string. It is kept
// as the reference AppendCanonicalCode is checked against — it shares
// neither the invariant partition nor the integer packing. A flagged
// target renders with a trailing '*', which no label can produce. perm
// is the renumbering of the first minimiser (perm[oldIdx] = new index).
func oracleCanonicalCode(q *Graph, target int) (string, []int) {
	n := len(q.Vertices)
	if n == 0 {
		return "", nil
	}
	best := ""
	var bestInv []int
	perm := make([]int, n) // perm[newIdx] = oldIdx
	inv := make([]int, n)  // inv[oldIdx] = newIdx
	used := make([]bool, n)

	var rec func(pos int)
	encode := func() string {
		lines := make([]string, 0, n+len(q.Edges))
		for newIdx := 0; newIdx < n; newIdx++ {
			mark := ""
			if perm[newIdx] == target {
				mark = "*"
			}
			lines = append(lines, fmt.Sprintf("v%d:%d%s", newIdx, q.Vertices[perm[newIdx]].Label, mark))
		}
		es := make([]string, 0, len(q.Edges))
		for _, e := range q.Edges {
			es = append(es, fmt.Sprintf("e%d>%d:%d", inv[e.From], inv[e.To], e.Label))
		}
		sort.Strings(es)
		lines = append(lines, es...)
		return strings.Join(lines, ";")
	}
	rec = func(pos int) {
		if pos == n {
			code := encode()
			if best == "" || code < best {
				best = code
				bestInv = append(bestInv[:0], inv...)
			}
			return
		}
		for old := 0; old < n; old++ {
			if used[old] {
				continue
			}
			used[old] = true
			perm[pos] = old
			inv[old] = pos
			rec(pos + 1)
			used[old] = false
		}
	}
	rec(0)
	return best, append([]int(nil), bestInv...)
}

// isIsomorphic reports whether a and b are isomorphic as labelled
// directed graphs, through the oracle: exact at any size but n! in the
// vertex count, so for the small graphs of tests only.
func isIsomorphic(a, b *Graph) bool {
	if len(a.Vertices) != len(b.Vertices) || len(a.Edges) != len(b.Edges) {
		return false
	}
	oa, _ := oracleCanonicalCode(a, NoTarget)
	ob, _ := oracleCanonicalCode(b, NoTarget)
	return oa == ob
}

// digraphFromBytes decodes a small labelled digraph from fuzz or random
// bytes: 1–6 vertices, labels from a pool that straddles 0x4000 (the bit
// catalogue keys used to mark the target with), every ordered vertex pair
// an edge or not, three edge labels, now and then a second edge of another
// label over the same pair. The graph need not be connected. The last
// result is a target vertex or NoTarget.
func digraphFromBytes(data []byte) (*Graph, int) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	labels := []graph.Label{0, 1, 0x4000, 0x4001, 0xFFFE}
	n := 1 + int(next())%6
	q := &Graph{}
	for i := 0; i < n; i++ {
		q.Vertices = append(q.Vertices, Vertex{Label: labels[int(next())%len(labels)]})
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			switch c := next(); {
			case c%3 == 0:
				q.Edges = append(q.Edges, Edge{From: a, To: b, Label: graph.Label(c / 3 % 3)})
				if c > 240 {
					q.Edges = append(q.Edges, Edge{From: a, To: b, Label: graph.Label((c/3 + 1) % 3)})
				}
			}
		}
	}
	target := int(next())%(n+1) - 1 // NoTarget or 0..n-1
	return q, target
}

// shuffledCopy returns q renumbered by a random permutation, its edges
// reordered, and the image of target.
func shuffledCopy(q *Graph, target int, rng *rand.Rand) (*Graph, int) {
	n := len(q.Vertices)
	perm := rng.Perm(n)
	out := &Graph{Vertices: make([]Vertex, n)}
	for i, v := range q.Vertices {
		out.Vertices[perm[i]] = v
	}
	for _, e := range q.Edges {
		out.Edges = append(out.Edges, Edge{From: perm[e.From], To: perm[e.To], Label: e.Label})
	}
	rng.Shuffle(len(out.Edges), func(i, j int) { out.Edges[i], out.Edges[j] = out.Edges[j], out.Edges[i] })
	if target != NoTarget {
		target = perm[target]
	}
	return out, target
}

// checkCodesAgree is the equivalence the kernel is held to: on any two
// graphs, packed codes are equal exactly when the oracle's strings are,
// and the renumbering the kernel reports turns each graph into the very
// graph its code spells out.
func checkCodesAgree(t *testing.T, q1 *Graph, t1 int, q2 *Graph, t2 int) {
	t.Helper()
	code := func(q *Graph, target int) Code {
		n := len(q.Vertices)
		perm := make([]int, n)
		c := Code(q.AppendCanonicalCode(nil, AllMask(n), target, perm))
		// Renumber by perm and spell the result out without minimising.
		want := []byte{byte(n)}
		if target != NoTarget {
			want[0] |= codeTargetBit
			if perm[target] != n-1 {
				t.Fatalf("target a%d renumbered to %d, want last (%d): %v", target+1, perm[target], n-1, q)
			}
		}
		labels := make([]graph.Label, n)
		seen := make([]bool, n)
		for v, p := range perm {
			if p < 0 || p >= n || seen[p] {
				t.Fatalf("perm %v is not a permutation: %v", perm, q)
			}
			seen[p] = true
			labels[p] = q.Vertices[v].Label
		}
		for _, l := range labels {
			want = append(want, byte(l>>8), byte(l))
		}
		var es []uint32
		for _, e := range q.Edges {
			es = append(es, uint32(perm[e.From])<<codeFromShift|uint32(perm[e.To])<<codeToShift|uint32(e.Label))
		}
		sort.Slice(es, func(i, j int) bool { return es[i] < es[j] })
		for _, e := range es {
			want = append(want, byte(e>>24), byte(e>>16), byte(e>>8), byte(e))
		}
		if string(want) != string(c) {
			t.Fatalf("perm %v does not map the graph onto its code:\n  graph %+v target %d\n  code  %s\n  via perm %s", perm, q, target, c, Code(want))
		}
		return c
	}
	c1, c2 := code(q1, t1), code(q2, t2)
	o1, _ := oracleCanonicalCode(q1, t1)
	o2, _ := oracleCanonicalCode(q2, t2)
	if (c1 == c2) != (o1 == o2) {
		t.Fatalf("packed codes equal = %v, oracle codes equal = %v\n  g1 %+v target %d\n     %s\n     %s\n  g2 %+v target %d\n     %s\n     %s",
			c1 == c2, o1 == o2, q1, t1, c1, o1, q2, t2, c2, o2)
	}
}

// TestCanonicalCodeMatchesOracle draws pairs of labelled digraphs — a
// graph against a shuffled copy of itself, and against an independent
// draw small enough to be isomorphic now and then — and requires packed
// codes to be equal exactly when the oracle's are.
func TestCanonicalCodeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	draw := func(maxBytes int) (*Graph, int) {
		data := make([]byte, maxBytes)
		rng.Read(data)
		return digraphFromBytes(data)
	}
	trials := 1500
	if testing.Short() {
		trials = 300
	}
	equalPairs := 0
	for i := 0; i < trials; i++ {
		q1, t1 := draw(48)
		q2, t2 := shuffledCopy(q1, t1, rng)
		checkCodesAgree(t, q1, t1, q2, t2)

		// Independent draws of at most three vertices over two vertex and
		// two edge labels are isomorphic often enough to exercise "equal"
		// from both sides.
		a, ta := smallDraw(rng)
		b, tb := smallDraw(rng)
		checkCodesAgree(t, a, ta, b, tb)
		if a.codeWithTarget(ta) == b.codeWithTarget(tb) {
			equalPairs++
		}
	}
	if equalPairs == 0 {
		t.Errorf("no independent pair was isomorphic in %d trials: the draw no longer tests equality from both sides", trials)
	}
}

// smallDraw feeds digraphFromBytes bytes chosen to give 1–3 vertices
// labelled 0 or 0x4000 and single edges labelled 0 or 1.
func smallDraw(rng *rand.Rand) (*Graph, int) {
	data := []byte{byte(rng.Intn(3))}
	for i := 0; i < 3; i++ {
		data = append(data, []byte{0, 2}[rng.Intn(2)])
	}
	for i := 0; i < 6; i++ {
		data = append(data, []byte{0, 3, 1, 1}[rng.Intn(4)])
	}
	return digraphFromBytes(append(data, byte(rng.Intn(256))))
}

func (q *Graph) codeWithTarget(target int) Code {
	return Code(q.AppendCanonicalCode(nil, AllMask(len(q.Vertices)), target, nil))
}

// TestCanonicalMatchesExactIsomorphism holds the plan-cache key to its
// contract below the bound: on patterns of at most six vertices, Key is
// equal exactly when the oracle's codes are — on fixed pairs, on random
// patterns against respellings of themselves, and against independent
// draws.
func TestCanonicalMatchesExactIsomorphism(t *testing.T) {
	oracle := func(q *Graph) string {
		o, _ := oracleCanonicalCode(q, NoTarget)
		return o
	}
	for _, p := range []struct {
		a, b string
		iso  bool
	}{
		{"a->b, b->c, a->c", "j->k, j->l, k->l", true},
		{"a->b, b->c, a->c", "a->b, b->c, c->a", false},
		{"a->b, b->c, c->d, d->a", "w->x, x->y, y->z, z->w", true},
		{"a->b, a->c, a->d", "b->a, c->a, d->a", false},
	} {
		qa, qb := MustParse(p.a), MustParse(p.b)
		if exact := oracle(qa) == oracle(qb); exact != p.iso {
			t.Fatalf("oracle isomorphism of %q vs %q = %v, want %v", p.a, p.b, exact, p.iso)
		}
		if keyed := qa.Key() == qb.Key(); keyed != p.iso {
			t.Errorf("key equality of %q vs %q = %v, want %v", p.a, p.b, keyed, p.iso)
		}
	}

	trials := 300
	if testing.Short() {
		trials = 60
	}
	f := func(a, b randomQuery, seed int64) bool {
		re := respell(a.Q, rand.New(rand.NewSource(seed)))
		oa, ka := oracle(a.Q), a.Q.Key()
		if ka != re.Key() || oa != oracle(re) {
			return false
		}
		return (ka == b.Q.Key()) == (oa == oracle(b.Q))
	}
	rng := rand.New(rand.NewSource(25))
	if err := quick.Check(f, &quick.Config{MaxCount: trials, Rand: rng}); err != nil {
		t.Error(err)
	}
	// Independent draws of at most three vertices are isomorphic often
	// enough to exercise "equal" from both sides.
	equalPairs := 0
	for i := 0; i < trials; i++ {
		a, _ := smallDraw(rng)
		b, _ := smallDraw(rng)
		keyed := a.Key() == b.Key()
		if exact := oracle(a) == oracle(b); keyed != exact {
			t.Fatalf("key equality %v, oracle equality %v:\n  %+v\n  %+v", keyed, exact, a, b)
		}
		if keyed {
			equalPairs++
		}
	}
	if equalPairs == 0 {
		t.Errorf("no independent pair was isomorphic in %d trials: the draw no longer tests equality from both sides", trials)
	}
}

// TestCanonicalCodeOfProjection checks the in-place form the catalogue
// relies on: the code of a vertex subset of q equals the code of that
// subset projected into a graph of its own.
func TestCanonicalCodeOfProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 2000; i++ {
		data := make([]byte, 48)
		rng.Read(data)
		q, _ := digraphFromBytes(data)
		mask := Mask(rng.Intn(1<<uint(len(q.Vertices))-1) + 1)
		sub, orig := q.Project(mask)
		target, subTarget := NoTarget, NoTarget
		if rng.Intn(2) == 0 {
			subTarget = rng.Intn(len(orig))
			target = orig[subTarget]
		}
		got := Code(q.AppendCanonicalCode(nil, mask, target, nil))
		if want := sub.codeWithTarget(subTarget); got != want {
			t.Fatalf("code of mask %b of %+v (target %d) = %s, projection's = %s", mask, q, target, got, want)
		}
	}
}

// TestCanonicalCodeString pins the readable rendering gfcatalogue prints.
func TestCanonicalCodeString(t *testing.T) {
	q := &Graph{
		Vertices: []Vertex{{Label: 1}, {Label: 0}, {Label: 0x4001}},
		Edges:    []Edge{{From: 1, To: 0, Label: 3}, {From: 1, To: 2}, {From: 0, To: 2}},
	}
	if got, want := q.CanonicalCode().String(), "0,1,16385 0>1:3 0>2:0 1>2:0"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if got, want := q.codeWithTarget(0).String(), "0,16385,1* 0>1:0 0>2:3 2>1:0"; got != want {
		t.Errorf("String() with target = %q, want %q", got, want)
	}
	if got := Code("").String(); got != "" {
		t.Errorf("empty code renders %q", got)
	}
	if got := Code("\x03\x00").String(); !strings.HasPrefix(got, "invalid code") {
		t.Errorf("truncated code renders %q", got)
	}
}

// FuzzCanonicalCode feeds the kernel arbitrary small labelled digraphs:
// a graph against a shuffled copy of itself and against a second,
// independent graph, each time requiring packed codes to be equal exactly
// when the oracle's are.
func FuzzCanonicalCode(f *testing.F) {
	f.Add([]byte{2, 0, 1, 0, 3}, []byte{2, 1, 0, 3, 0}, int64(1))
	f.Add([]byte{3, 2, 2, 2, 0, 3, 6, 0, 3, 6, 1}, []byte{3, 2, 2, 2, 6, 0, 3, 3, 6, 0, 2}, int64(7))
	f.Add([]byte{5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, []byte{0}, int64(3))
	f.Fuzz(func(t *testing.T, a, b []byte, seed int64) {
		q1, t1 := digraphFromBytes(a)
		q2, t2 := digraphFromBytes(b)
		checkCodesAgree(t, q1, t1, q2, t2)
		q3, t3 := shuffledCopy(q1, t1, rand.New(rand.NewSource(seed)))
		checkCodesAgree(t, q1, t1, q3, t3)
	})
}

// TestZeroAllocs is the dynamic backstop of the kernel's //gf:noalloc
// contract; CI runs it via the shared `go test -run 'ZeroAllocs'` step.
func TestZeroAllocs(t *testing.T) {
	labelled := &Graph{
		Vertices: []Vertex{{Label: 1}, {Label: 0}, {Label: 1}, {Label: 0}},
		Edges: []Edge{
			{From: 0, To: 1, Label: 2}, {From: 1, To: 2}, {From: 2, To: 3, Label: 2},
			{From: 3, To: 0}, {From: 0, To: 2, Label: 1},
		},
	}
	cycle6 := Q12()
	cycle30 := &Graph{Vertices: make([]Vertex, MaxVertices)}
	for v := range MaxVertices {
		cycle30.Edges = append(cycle30.Edges, Edge{From: v, To: (v + 1) % MaxVertices})
	}
	buf := make([]byte, 0, 256)
	perm := make([]int, 6)
	cases := []struct {
		name string
		body func()
	}{
		{"canonical code, 4-vertex labelled graph", func() {
			buf = labelled.AppendCanonicalCode(buf[:0], AllMask(4), NoTarget, perm)
		}},
		{"canonical code, 3 of the 6-cycle's vertices with a target", func() {
			buf = cycle6.AppendCanonicalCode(buf[:0], 0b001110, 2, perm)
		}},
		{"canonical code, 6-cycle (720 candidates)", func() {
			buf = cycle6.AppendCanonicalCode(buf[:0], AllMask(6), NoTarget, nil)
		}},
		{"canonical code, 30-cycle (30! candidates: above the bound)", func() {
			buf = cycle30.AppendCanonicalCode(buf[:0], AllMask(MaxVertices), NoTarget, nil)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if a := testing.AllocsPerRun(100, tc.body); a != 0 {
				t.Fatalf("%s allocates %v per run, want 0", tc.name, a)
			}
		})
	}
}
