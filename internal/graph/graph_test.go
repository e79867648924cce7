package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// buildTriangle returns the labelled 4-vertex graph used across tests:
//
//	0 -> 1 (edge label 0), 0 -> 2 (label 1), 1 -> 2 (label 0), 2 -> 3 (label 0)
//	vertex labels: 0:a(0) 1:b(1) 2:a(0) 3:b(1)
func buildLabelled(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(4)
	b.SetVertexLabel(1, 1)
	b.SetVertexLabel(3, 1)
	b.AddEdge(0, 1, 0)
	b.AddEdge(0, 2, 1)
	b.AddEdge(1, 2, 0)
	b.AddEdge(2, 3, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuildBasics(t *testing.T) {
	g := buildLabelled(t)
	if g.NumVertices() != 4 {
		t.Errorf("NumVertices = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 4 {
		t.Errorf("NumEdges = %d, want 4", g.NumEdges())
	}
	if g.NumVertexLabels() != 2 || g.NumEdgeLabels() != 2 {
		t.Errorf("label counts = (%d,%d), want (2,2)", g.NumVertexLabels(), g.NumEdgeLabels())
	}
	if g.VertexLabel(1) != 1 || g.VertexLabel(2) != 0 {
		t.Errorf("vertex labels wrong: %d %d", g.VertexLabel(1), g.VertexLabel(2))
	}
}

func TestNeighborsExact(t *testing.T) {
	g := buildLabelled(t)
	got := g.Neighbors(0, Forward, 0, 1, nil)
	if !reflect.DeepEqual(append([]VertexID(nil), got...), []VertexID{1}) {
		t.Errorf("fwd(0, e0, n1) = %v, want [1]", got)
	}
	got = g.Neighbors(0, Forward, 1, 0, nil)
	if !reflect.DeepEqual(append([]VertexID(nil), got...), []VertexID{2}) {
		t.Errorf("fwd(0, e1, n0) = %v, want [2]", got)
	}
	if n := g.Neighbors(0, Forward, 1, 1, nil); len(n) != 0 {
		t.Errorf("fwd(0, e1, n1) = %v, want empty", n)
	}
	got = g.Neighbors(2, Backward, WildcardLabel, WildcardLabel, nil)
	want := []VertexID{0, 1}
	cp := append([]VertexID(nil), got...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	if !reflect.DeepEqual(cp, want) {
		t.Errorf("bwd(2, *, *) = %v, want %v", cp, want)
	}
}

func TestNeighborsWildcardMergeSorted(t *testing.T) {
	// Vertex 0 has neighbours under different labels; the wildcard result
	// must be globally ID-sorted.
	b := NewBuilder(6)
	b.SetVertexLabel(2, 1)
	b.SetVertexLabel(4, 1)
	b.AddEdge(0, 5, 0)
	b.AddEdge(0, 2, 0) // label-1 neighbour
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 4, 1) // label-1 neighbour under edge label 1
	b.AddEdge(0, 3, 0)
	g := b.MustBuild()
	got := g.Neighbors(0, Forward, WildcardLabel, WildcardLabel, nil)
	want := []VertexID{1, 2, 3, 4, 5}
	if !reflect.DeepEqual(append([]VertexID(nil), got...), want) {
		t.Errorf("wildcard merge = %v, want %v", got, want)
	}
	// Restricting the neighbour label must also merge across edge labels.
	got = g.Neighbors(0, Forward, WildcardLabel, 1, nil)
	want = []VertexID{2, 4}
	if !reflect.DeepEqual(append([]VertexID(nil), got...), want) {
		t.Errorf("wildcard edge-label merge = %v, want %v", got, want)
	}
}

func TestDegreeAndHasEdge(t *testing.T) {
	g := buildLabelled(t)
	if d := g.OutDegree(0); d != 2 {
		t.Errorf("OutDegree(0) = %d, want 2", d)
	}
	if d := g.InDegree(2); d != 2 {
		t.Errorf("InDegree(2) = %d, want 2", d)
	}
	if d := g.Degree(0, Forward, 0, WildcardLabel); d != 1 {
		t.Errorf("Degree(0,fwd,e0,*) = %d, want 1", d)
	}
	if !g.HasEdge(0, 1, 0) || !g.HasEdge(0, 2, WildcardLabel) {
		t.Error("HasEdge missed existing edges")
	}
	if g.HasEdge(1, 0, WildcardLabel) || g.HasEdge(0, 1, 1) {
		t.Error("HasEdge reported nonexistent edges")
	}
}

func TestSelfLoopsDroppedAndDeduplicated(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 0, 0)
	b.AddEdge(0, 1, 0)
	b.AddEdge(0, 1, 0)
	b.AddEdge(0, 1, 1) // distinct label: kept
	g := b.MustBuild()
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2 (dedup + self-loop drop)", g.NumEdges())
	}
}

func TestBuildErrors(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 5, 0)
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted out-of-range vertex")
	}
	b2 := NewBuilder(2)
	b2.AddEdge(0, 1, WildcardLabel)
	if _, err := b2.Build(); err == nil {
		t.Error("Build accepted wildcard edge label")
	}
	b3 := NewBuilder(2)
	b3.SetVertexLabel(0, WildcardLabel)
	if _, err := b3.Build(); err == nil {
		t.Error("Build accepted wildcard vertex label")
	}
}

func TestEdgesIteration(t *testing.T) {
	g := buildLabelled(t)
	type e struct {
		s, d VertexID
		l    Label
	}
	var got []e
	g.Edges(func(s, d VertexID, l Label) bool {
		got = append(got, e{s, d, l})
		return true
	})
	if len(got) != 4 {
		t.Fatalf("Edges visited %d, want 4", len(got))
	}
	// Early stop.
	count := 0
	g.Edges(func(s, d VertexID, l Label) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early stop visited %d, want 2", count)
	}
	// Per-vertex iteration agrees with the full sweep.
	var per []e
	for v := 0; v < g.NumVertices(); v++ {
		g.EdgesOf(VertexID(v), func(s, d VertexID, l Label) bool {
			per = append(per, e{s, d, l})
			return true
		})
	}
	if !reflect.DeepEqual(got, per) {
		t.Errorf("EdgesOf disagrees with Edges: %v vs %v", per, got)
	}
}

func TestIntersect(t *testing.T) {
	cases := []struct{ a, b, want []VertexID }{
		{nil, nil, nil},
		{[]VertexID{1, 2, 3}, nil, nil},
		{[]VertexID{1, 2, 3}, []VertexID{2, 3, 4}, []VertexID{2, 3}},
		{[]VertexID{1, 5, 9}, []VertexID{2, 6, 10}, nil},
		{[]VertexID{1, 2, 3}, []VertexID{1, 2, 3}, []VertexID{1, 2, 3}},
	}
	for _, c := range cases {
		got := Intersect(c.a, c.b, nil)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Intersect(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestIntersectGalloping(t *testing.T) {
	long := make([]VertexID, 10000)
	for i := range long {
		long[i] = VertexID(i * 3)
	}
	short := []VertexID{0, 3, 7, 2997, 29997, 50000}
	got := Intersect(short, long, nil)
	want := []VertexID{0, 3, 2997, 29997}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("galloping intersect = %v, want %v", got, want)
	}
	// Symmetry.
	got2 := Intersect(long, short, nil)
	if !reflect.DeepEqual(got2, want) {
		t.Errorf("galloping intersect (swapped) = %v, want %v", got2, want)
	}
}

func TestIntersectK(t *testing.T) {
	lists := [][]VertexID{
		{1, 2, 3, 4, 5, 6},
		{2, 4, 6, 8},
		{4, 5, 6, 7},
	}
	var it Intersector
	got, _ := it.IntersectSeeded(nil, lists, nil, nil)
	want := []VertexID{4, 6}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("IntersectSeeded(nil, lists) = %v, want %v", got, want)
	}
	one, _ := it.IntersectSeeded(nil, lists[:1], nil, nil)
	if !reflect.DeepEqual(one, lists[0]) {
		t.Errorf("IntersectSeeded(nil, one list) = %v", one)
	}
	empty, _ := it.IntersectSeeded(nil, nil, nil, nil)
	if len(empty) != 0 {
		t.Errorf("IntersectSeeded(nil, nil) = %v, want empty", empty)
	}
}

// intersectRef is a map-based reference for the property test.
func intersectRef(a, b []VertexID) []VertexID {
	set := map[VertexID]struct{}{}
	for _, x := range a {
		set[x] = struct{}{}
	}
	var out []VertexID
	for _, x := range b {
		if _, ok := set[x]; ok {
			out = append(out, x)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestIntersectProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		a := randomSortedSet(rng, rng.Intn(200))
		b := randomSortedSet(rng, rng.Intn(200)*rng.Intn(40)) // occasionally much longer
		got := Intersect(a, b, nil)
		want := intersectRef(a, b)
		if len(got) != len(want) {
			t.Fatalf("iter %d: len mismatch: got %v want %v", iter, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("iter %d: got %v want %v", iter, got, want)
			}
		}
	}
}

func randomSortedSet(rng *rand.Rand, n int) []VertexID {
	seen := map[VertexID]struct{}{}
	for len(seen) < n {
		seen[VertexID(rng.Intn(5*(n+1)))] = struct{}{}
	}
	out := make([]VertexID, 0, n)
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestStats(t *testing.T) {
	// A triangle plus pendant: clustering of the triangle corners is 1.
	b := NewBuilder(4)
	b.AddEdge(0, 1, 0)
	b.AddEdge(1, 2, 0)
	b.AddEdge(0, 2, 0)
	b.AddEdge(2, 3, 0)
	g := b.MustBuild()
	st := ComputeStatsOf(g, 0, nil)
	if st.Vertices != 4 || st.Edges != 4 {
		t.Errorf("stats counts = %+v", st)
	}
	if st.Out.Max != 2 {
		t.Errorf("out max = %d, want 2", st.Out.Max)
	}
	// Vertices 0 and 1 have clustering 1 (their two neighbours are linked);
	// vertex 2 has 3 neighbours with 1 link = 1/3; vertex 3 has degree 1.
	want := (1.0 + 1.0 + 1.0/3.0) / 3.0
	if diff := st.Clustering - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("clustering = %v, want %v", st.Clustering, want)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).MustBuild()
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Errorf("empty graph: %v", g)
	}
	st := ComputeStatsOf(g, 0, nil)
	if st.Clustering != 0 || st.Out.Mean != 0 {
		t.Errorf("empty stats: %+v", st)
	}
}

func TestIsolatedVerticesPartitionOffsets(t *testing.T) {
	// Vertices 0 and 4 have edges; 1..3 are isolated and must have empty
	// partition directories.
	b := NewBuilder(6)
	b.AddEdge(0, 5, 0)
	b.AddEdge(4, 5, 0)
	g := b.MustBuild()
	for v := VertexID(0); v < 6; v++ {
		_ = g.Neighbors(v, Forward, 0, 0, nil) // must not panic
		_ = g.Neighbors(v, Backward, WildcardLabel, WildcardLabel, nil)
	}
	if d := g.OutDegree(2); d != 0 {
		t.Errorf("isolated OutDegree = %d", d)
	}
	if got := g.Neighbors(4, Forward, 0, 0, nil); len(got) != 1 || got[0] != 5 {
		t.Errorf("Neighbors(4) = %v", got)
	}
}
