package graph

import "testing"

// wildcardFixture builds a graph whose vertex 0 reaches the same few
// neighbours under edge labels 0, 1 and 2, and vertex 1 under labels 0
// and 1: wildcard reads of them merge three and two partitions.
func wildcardFixture() *Graph {
	b := NewBuilder(40)
	for l := Label(0); l < 3; l++ {
		for d := 2; d < 30; d += int(l) + 2 {
			b.AddEdge(0, VertexID(d), l)
			if l < 2 {
				b.AddEdge(1, VertexID(d+1), l)
			}
		}
	}
	return b.MustBuild()
}

// TestNeighborReaderZeroAllocs is the runtime guard behind Read's
// //gf:noalloc: gfvet does not follow the call through the View
// interface, and a wildcard read used to collect its partitions in a
// fresh slice (and its merge cursors in another, past two partitions) on
// every lookup — four allocations per read over three edge labels.
func TestNeighborReaderZeroAllocs(t *testing.T) {
	g := wildcardFixture()
	for _, c := range []struct {
		name  string
		v     VertexID
		parts int
	}{{"two partitions", 1, 2}, {"three partitions", 0, 3}} {
		if got := len(g.NeighborRuns(c.v, Forward, WildcardLabel, 0, nil)); got != c.parts {
			t.Fatalf("%s: fixture matches %d partitions", c.name, got)
		}
		var r NeighborReader
		want := g.Neighbors(c.v, Forward, WildcardLabel, 0, nil)
		if got := r.Read(g, c.v, Forward, WildcardLabel, 0); !equalIDs(got, want) || len(got) != g.Degree(c.v, Forward, WildcardLabel, 0) {
			t.Fatalf("%s: Read = %v, Neighbors = %v", c.name, got, want)
		}
		if n := testing.AllocsPerRun(100, func() {
			_ = r.Read(g, c.v, Forward, WildcardLabel, 0)
			_ = r.Read(g, c.v, Forward, WildcardLabel, WildcardLabel)
			_ = r.Read(g, c.v, Forward, 1, WildcardLabel)
		}); n != 0 {
			t.Errorf("%s: %.0f allocs per round of wildcard reads", c.name, n)
		}
	}
}
