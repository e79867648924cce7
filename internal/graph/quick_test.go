package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// sortedSet is a quick.Generator producing random sorted VertexID sets.
type sortedSet []VertexID

// Generate implements quick.Generator.
func (sortedSet) Generate(rng *rand.Rand, size int) reflect.Value {
	n := rng.Intn(size + 1)
	seen := map[VertexID]struct{}{}
	for len(seen) < n {
		seen[VertexID(rng.Intn(4*(n+1)))] = struct{}{}
	}
	out := make(sortedSet, 0, n)
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return reflect.ValueOf(out)
}

func TestQuickIntersectCommutative(t *testing.T) {
	f := func(a, b sortedSet) bool {
		ab := Intersect([]VertexID(a), []VertexID(b), nil)
		ba := Intersect([]VertexID(b), []VertexID(a), nil)
		if len(ab) != len(ba) {
			return false
		}
		for i := range ab {
			if ab[i] != ba[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickIntersectSubsetAndSorted(t *testing.T) {
	f := func(a, b sortedSet) bool {
		out := Intersect([]VertexID(a), []VertexID(b), nil)
		// Sorted, duplicate-free, and a subset of both inputs.
		for i := 1; i < len(out); i++ {
			if out[i] <= out[i-1] {
				return false
			}
		}
		for _, x := range out {
			if !containsSorted([]VertexID(a), x) || !containsSorted([]VertexID(b), x) {
				return false
			}
		}
		// Every common element is present.
		for _, x := range a {
			if containsSorted([]VertexID(b), x) && !containsSorted(out, x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickIntersectIdempotent(t *testing.T) {
	f := func(a sortedSet) bool {
		out := Intersect([]VertexID(a), []VertexID(a), nil)
		if len(out) != len(a) {
			return false
		}
		for i := range out {
			if out[i] != a[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickIntersectKMatchesPairwise(t *testing.T) {
	f := func(a, b, c sortedSet) bool {
		var it Intersector
		k, _ := it.IntersectK([][]VertexID{a, b, c}, nil, nil)
		two := Intersect([]VertexID(a), []VertexID(b), nil)
		want := Intersect(two, []VertexID(c), nil)
		if len(k) != len(want) {
			return false
		}
		for i := range k {
			if k[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// randomGraphSpec drives graph-construction properties.
type randomGraphSpec struct {
	N     uint8
	Edges []struct{ S, D, L uint8 }
}

func TestQuickBuilderInvariants(t *testing.T) {
	f := func(spec randomGraphSpec) bool {
		n := int(spec.N%40) + 1
		b := NewBuilder(n)
		added := 0
		for _, e := range spec.Edges {
			s, d := VertexID(int(e.S)%n), VertexID(int(e.D)%n)
			b.AddEdge(s, d, Label(e.L%3))
			added++
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		// Edge count bounded by additions; every adjacency partition sorted;
		// forward and backward views agree edge for edge.
		if g.NumEdges() > added {
			return false
		}
		total := 0
		ok := true
		g.Edges(func(src, dst VertexID, l Label) bool {
			total++
			if src == dst {
				ok = false // self loops dropped
			}
			// The backward index must contain the mirror entry.
			back := g.Neighbors(dst, Backward, l, g.VertexLabel(src), nil)
			if !containsSorted(back, src) {
				ok = false
			}
			return true
		})
		if !ok || total != g.NumEdges() {
			return false
		}
		// Wildcard neighbour lists are globally sorted.
		for v := 0; v < n; v++ {
			lst := g.Neighbors(VertexID(v), Forward, WildcardLabel, WildcardLabel, nil)
			for i := 1; i < len(lst); i++ {
				if lst[i] < lst[i-1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickDegreeSumsEqualEdges(t *testing.T) {
	f := func(spec randomGraphSpec) bool {
		n := int(spec.N%30) + 2
		b := NewBuilder(n)
		for _, e := range spec.Edges {
			b.AddEdge(VertexID(int(e.S)%n), VertexID(int(e.D)%n), 0)
		}
		g := b.MustBuild()
		outSum, inSum := 0, 0
		for v := 0; v < n; v++ {
			outSum += g.OutDegree(VertexID(v))
			inSum += g.InDegree(VertexID(v))
		}
		return outSum == g.NumEdges() && inSum == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
