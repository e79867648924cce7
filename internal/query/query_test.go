package query

import (
	"math/bits"
	"strings"
	"testing"
)

func TestParseTriangle(t *testing.T) {
	q, err := Parse("a1->a2, a2->a3, a1->a3")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.NumVertices() != 3 || q.NumEdges() != 3 {
		t.Fatalf("parsed %d vertices, %d edges", q.NumVertices(), q.NumEdges())
	}
	if q.VertexIndex("a2") != 1 {
		t.Errorf("a2 index = %d", q.VertexIndex("a2"))
	}
}

func TestParseLabels(t *testing.T) {
	q, err := Parse("a:1 -[2]-> b:3, b -> a")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Vertices[0].Label != 1 || q.Vertices[1].Label != 3 {
		t.Errorf("vertex labels = %v", q.Vertices)
	}
	if q.Edges[0].Label != 2 || q.Edges[1].Label != 0 {
		t.Errorf("edge labels = %v", q.Edges)
	}
}

func TestParseReversedArrow(t *testing.T) {
	q := MustParse("a <- b, a -> c")
	// b->a and a->c.
	if q.Edges[0].From != q.VertexIndex("b") || q.Edges[0].To != q.VertexIndex("a") {
		t.Errorf("reversed arrow parsed wrong: %+v", q.Edges[0])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",               // no edges
		"a->a",           // self loop
		"a->b, a->b",     // duplicate edge
		"a->b, c->d",     // disconnected
		"a:1->b, a:2->c", // conflicting labels
		"a b",            // no arrow
		"a -[x]-> b",     // bad edge label
		"a:zz -> b",      // bad vertex label
		"a -[1]- b",      // malformed arrow
	}
	for _, p := range bad {
		if _, err := Parse(p); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", p)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	for j := 1; j <= 14; j++ {
		q := Benchmark(j)
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("Q%d: reparse failed: %v (pattern %q)", j, err, q.String())
		}
		if !isIsomorphic(q, q2) {
			t.Errorf("Q%d: round trip not isomorphic", j)
		}
	}
}

func TestBenchmarkQueries(t *testing.T) {
	wantVE := map[int][2]int{
		1: {3, 3}, 2: {4, 4}, 3: {4, 4}, 4: {4, 5}, 5: {4, 5},
		6: {4, 6}, 7: {5, 10}, 8: {5, 6}, 9: {6, 8}, 10: {6, 7},
		11: {5, 4}, 12: {6, 6}, 13: {6, 5}, 14: {7, 21},
	}
	for j := 1; j <= 14; j++ {
		q := Benchmark(j)
		if q == nil {
			t.Fatalf("Benchmark(%d) = nil", j)
		}
		if err := q.Validate(); err != nil {
			t.Errorf("Q%d invalid: %v", j, err)
		}
		if got := [2]int{q.NumVertices(), q.NumEdges()}; got != wantVE[j] {
			t.Errorf("Q%d = %v vertices/edges, want %v", j, got, wantVE[j])
		}
	}
	if Benchmark(0) != nil || Benchmark(15) != nil {
		t.Error("out-of-range Benchmark should be nil")
	}
}

func TestIsConnected(t *testing.T) {
	q := Q4() // diamond-X
	if !q.IsConnected(AllMask(4)) {
		t.Error("full diamond-X should be connected")
	}
	// a1 and a4 are not adjacent in diamond-X.
	if q.IsConnected(Bit(0) | Bit(3)) {
		t.Error("{a1,a4} should be disconnected")
	}
	if !q.IsConnected(Bit(0) | Bit(1)) {
		t.Error("{a1,a2} should be connected")
	}
	if !q.IsConnected(Bit(2)) {
		t.Error("singleton should be connected")
	}
	if q.IsConnected(0) {
		t.Error("empty mask should not be connected")
	}
}

func TestConnectedSubsets(t *testing.T) {
	q := Q1() // triangle: all non-empty subsets connected
	subs := q.ConnectedSubsets(1)
	if len(subs) != 7 {
		t.Errorf("triangle connected subsets = %d, want 7", len(subs))
	}
	// Popcount ordering.
	for i := 1; i < len(subs); i++ {
		if bits.OnesCount32(subs[i]) < bits.OnesCount32(subs[i-1]) {
			t.Errorf("subsets not popcount-ordered")
		}
	}
	// Path a1->a2->a3: {a1,a3} disconnected.
	p := MustParse("a1->a2, a2->a3")
	subs = p.ConnectedSubsets(2)
	for _, m := range subs {
		if m == Bit(0)|Bit(2) {
			t.Errorf("{a1,a3} reported connected in path")
		}
	}
	if len(subs) != 3 { // {a1,a2}, {a2,a3}, all
		t.Errorf("path connected subsets(>=2) = %d, want 3", len(subs))
	}
}

func TestProject(t *testing.T) {
	q := Q4()
	sub, orig := q.Project(Bit(0) | Bit(1) | Bit(2)) // a1,a2,a3 triangle
	if sub.NumVertices() != 3 || sub.NumEdges() != 3 {
		t.Fatalf("projection = %d/%d, want 3/3", sub.NumVertices(), sub.NumEdges())
	}
	if len(orig) != 3 || orig[0] != 0 || orig[2] != 2 {
		t.Errorf("orig mapping = %v", orig)
	}
	if !isIsomorphic(sub, Q1()) {
		t.Error("diamond-X projection on a1..a3 should be the asymmetric triangle")
	}
}

func TestEdgesBetween(t *testing.T) {
	q := Q4()
	// Extending {a2,a3} by a4: edges a2->a4 and a3->a4.
	es := q.EdgesBetween(Bit(1)|Bit(2), 3)
	if len(es) != 2 {
		t.Fatalf("EdgesBetween = %v", es)
	}
	for _, e := range es {
		if e.To != 3 {
			t.Errorf("expected edges into a4, got %+v", e)
		}
	}
}

func TestCanonicalCode(t *testing.T) {
	// Isomorphic triangles with different vertex orders.
	q1 := MustParse("x->y, y->z, x->z")
	q2 := MustParse("b->c, a->b, a->c")
	if q1.CanonicalCode() != q2.CanonicalCode() {
		t.Error("isomorphic triangles got different codes")
	}
	// Direction matters: cyclic triangle differs from asymmetric.
	cyc := MustParse("a->b, b->c, c->a")
	if cyc.CanonicalCode() == q1.CanonicalCode() {
		t.Error("cyclic and asymmetric triangles should differ")
	}
	// Labels matter.
	lab := MustParse("x -[1]-> y, y->z, x->z")
	if lab.CanonicalCode() == q1.CanonicalCode() {
		t.Error("edge label should change the code")
	}
	vlab := MustParse("x:1->y, y->z, x->z")
	if vlab.CanonicalCode() == q1.CanonicalCode() {
		t.Error("vertex label should change the code")
	}
}

func TestCanonicalKeyIsomorphicSpellings(t *testing.T) {
	// The same structure under renamed vertices and reordered edges must
	// share a canonical key.
	groups := [][]string{
		{"a->b, b->c, a->c", "x->y, y->z, x->z", "b->c, a->b, a->c", "q <- p, q->r, p->r"},
		{"a->b, b->c, c->a", "z->x, x->y, y->z"},
		{"a:1 -> b:2", "u:1 -> v:2"},
		{"a -[3]-> b, b -> c, a -> c", "x -[3]-> y, y -> z, x -> z"},
	}
	for gi, group := range groups {
		want := MustParse(group[0]).Key()
		for _, pat := range group[1:] {
			if got := MustParse(pat).Key(); got != want {
				t.Errorf("group %d: %q key %q != %q", gi, pat, got, want)
			}
		}
	}
}

func TestCanonicalKeyDistinguishes(t *testing.T) {
	patterns := []string{
		"a->b, b->c, a->c", // asymmetric triangle
		"a->b, b->c, c->a", // cyclic triangle
		"a->b, b->c",       // path
		"a->b, a->c",       // out-fork
		"b->a, c->a",       // in-fork
		"a:1->b, b->c, a->c",
		"a-[1]->b, b->c, a->c",
		"a->b, b->c, c->d, a->d",
		"a->b, b->c, c->d, d->a",
	}
	seen := map[string]string{}
	for _, pat := range patterns {
		k := MustParse(pat).Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("patterns %q and %q share key %q", prev, pat, Code(k))
		}
		seen[k] = pat
	}
}

func TestCanonicalKeySoundOnSymmetricQuery(t *testing.T) {
	// A 6-cycle has one invariant class, so every ordering is a candidate;
	// the key must still be stable and must differ from a near miss.
	cyc := MustParse("a->b, b->c, c->d, d->e, e->f, f->a")
	k1 := cyc.Key()
	k2 := MustParse("u->v, v->w, w->x, x->y, y->z, z->u").Key()
	if k1 != k2 {
		t.Errorf("isomorphic 6-cycles got distinct keys %s / %s", Code(k1), Code(k2))
	}
	other := MustParse("a->b, b->c, c->d, d->e, e->f, a->f") // one edge flipped
	if other.Key() == k1 {
		t.Error("non-isomorphic query shares the 6-cycle key")
	}
	labels, _, _ := strings.Cut(Code(k1).String(), " ")
	if n := strings.Count(labels, ",") + 1; n != 6 {
		t.Errorf("key %s names %d vertices, want 6", Code(k1), n)
	}
}

func TestCanonicalNormalizesNamesAndEdges(t *testing.T) {
	q := MustParse("zz->yy, yy->xx, zz->xx")
	canon, perm := q.Canonical()
	if len(perm) != 3 {
		t.Fatalf("perm length %d", len(perm))
	}
	for i, v := range canon.Vertices {
		want := []string{"a1", "a2", "a3"}[i]
		if v.Name != want {
			t.Errorf("canonical vertex %d named %q, want %q", i, v.Name, want)
		}
	}
	for i := 1; i < len(canon.Edges); i++ {
		a, b := canon.Edges[i-1], canon.Edges[i]
		if a.From > b.From || (a.From == b.From && a.To > b.To) {
			t.Errorf("edges not sorted: %+v before %+v", a, b)
		}
	}
	if err := canon.Validate(); err != nil {
		t.Errorf("canonical graph invalid: %v", err)
	}
	// perm must be a bijection applied consistently.
	for orig, c := range perm {
		if q.Vertices[orig].Label != canon.Vertices[c].Label {
			t.Errorf("label mismatch through perm at %d", orig)
		}
	}
}

func TestCanonicalDeterministic(t *testing.T) {
	q := MustParse("a->b, b->c, c->d, a->d, a->c")
	want := q.Key()
	for i := 0; i < 20; i++ {
		if got := q.Key(); got != want {
			t.Fatalf("run %d: key %q != %q", i, got, want)
		}
	}
}

func TestIsIsomorphic(t *testing.T) {
	if !isIsomorphic(Q12(), MustParse("b->c, c->d, d->e, e->f, f->a, a->b")) {
		t.Error("6-cycles should be isomorphic")
	}
	if isIsomorphic(Q1(), Q2()) {
		t.Error("triangle vs 4-cycle should differ")
	}
	if isIsomorphic(Q11(), Q13()) {
		t.Error("different-length paths should differ")
	}
}

func TestAutomorphisms(t *testing.T) {
	// Asymmetric triangle is rigid: only identity.
	if n := len(Q1().Automorphisms()); n != 1 {
		t.Errorf("asymmetric triangle automorphisms = %d, want 1", n)
	}
	// Cyclic triangle has the 3 rotations.
	cyc := MustParse("a->b, b->c, c->a")
	if n := len(cyc.Automorphisms()); n != 3 {
		t.Errorf("cyclic triangle automorphisms = %d, want 3", n)
	}
	// Directed 6-cycle: 6 rotations.
	if n := len(Q12().Automorphisms()); n != 6 {
		t.Errorf("6-cycle automorphisms = %d, want 6", n)
	}
	// Diamond-X of Fig 1: swapping a1<->a4 is NOT an automorphism (directions),
	// but the query has a symmetry swapping nothing; verify identity present.
	autos := Q4().Automorphisms()
	foundIdentity := false
	for _, p := range autos {
		id := true
		for i, x := range p {
			if x != i {
				id = false
			}
		}
		if id {
			foundIdentity = true
		}
	}
	if !foundIdentity {
		t.Error("identity not among automorphisms")
	}
}

func TestWithRandomEdgeLabels(t *testing.T) {
	q := WithRandomEdgeLabels(Q4(), 3, 99)
	if q.NumEdges() != 5 {
		t.Fatalf("labeled copy lost edges")
	}
	distinct := map[int]bool{}
	for _, e := range q.Edges {
		if int(e.Label) > 2 {
			t.Errorf("label out of range: %d", e.Label)
		}
		distinct[int(e.Label)] = true
	}
	// Original untouched.
	for _, e := range Q4().Edges {
		if e.Label != 0 {
			t.Error("original mutated")
		}
	}
	same := WithRandomEdgeLabels(Q4(), 1, 99)
	for _, e := range same.Edges {
		if e.Label != 0 {
			t.Error("numLabels=1 should keep labels 0")
		}
	}
}

func TestValidateTooManyVertices(t *testing.T) {
	q := &Graph{}
	for i := 0; i <= MaxVertices; i++ {
		q.Vertices = append(q.Vertices, Vertex{})
	}
	for i := 0; i < MaxVertices; i++ {
		q.Edges = append(q.Edges, Edge{From: i, To: i + 1})
	}
	if err := q.Validate(); err == nil || !strings.Contains(err.Error(), "maximum") {
		t.Errorf("expected max-vertices error, got %v", err)
	}
}
