package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// reassemble feeds g's own adjacency back through an Assembler, as the
// live store's fold does: stretches of random length alternately copied
// as blocks and appended partition by partition.
func reassemble(t *testing.T, g *Graph, hubThreshold int, rng *rand.Rand) *Graph {
	t.Helper()
	labels := make([]Label, g.NumVertices())
	for v := range labels {
		labels[v] = g.VertexLabel(VertexID(v))
	}
	asm := NewAssembler(labels, g.NumEdges())
	for _, dir := range []Direction{Forward, Backward} {
		for v, block := 0, false; v < g.NumVertices(); block = !block {
			end := min(v+1+rng.Intn(4), g.NumVertices())
			if block {
				asm.AppendRange(g, VertexID(v), VertexID(end), dir)
				v = end
				continue
			}
			for ; v < end; v++ {
				if n := g.NumPartitions(VertexID(v), dir); n == 0 {
					// An empty run must be skipped, wherever it arrives.
					asm.AppendPartition(VertexID(v), dir, 0, 0, nil)
				}
				g.Partitions(VertexID(v), dir, func(e, nl Label, nbrs []VertexID) bool {
					asm.AppendPartition(VertexID(v), dir, e, nl, nbrs)
					return true
				})
			}
		}
	}
	out, err := asm.Finish(hubThreshold)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return out
}

// TestAssemblerMatchesBuilder: a graph assembled from sorted partitions
// is the graph Builder sorts its way to — every array, hub bitsets and
// label counts included.
func TestAssemblerMatchesBuilder(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		hub := []int{-1, 0, 2, 5}[rng.Intn(4)]
		b := NewBuilder(n)
		b.SetHubThreshold(hub)
		vl, el := 1+rng.Intn(3), 1+rng.Intn(3)
		for v := 0; v < n; v++ {
			b.SetVertexLabel(VertexID(v), Label(rng.Intn(vl)))
		}
		// Leave a tail of isolated vertices so trailing offsets are carried.
		for i := rng.Intn(n * 4); i > 0; i-- {
			b.AddEdge(VertexID(rng.Intn(n*3/4+1)), VertexID(rng.Intn(n*3/4+1)), Label(rng.Intn(el)))
		}
		want := b.MustBuild()
		if got := reassemble(t, want, hub, rng); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (n=%d hub=%d): assembled graph differs from the built one:\n got %+v\nwant %+v", seed, n, hub, got, want)
		}
	}
}

func TestAssemblerRejectsBadInput(t *testing.T) {
	if _, err := NewAssembler([]Label{0, WildcardLabel}, 0).Finish(-1); err == nil {
		t.Error("wildcard vertex label accepted")
	}
	asm := NewAssembler([]Label{0, 0}, 1)
	asm.AppendPartition(0, Forward, WildcardLabel, 0, []VertexID{1})
	asm.AppendPartition(1, Backward, WildcardLabel, 0, []VertexID{0})
	if _, err := asm.Finish(-1); err == nil {
		t.Error("wildcard edge label accepted")
	}
	asm = NewAssembler([]Label{0, 0}, 1)
	asm.AppendPartition(0, Forward, 0, 0, []VertexID{1})
	if _, err := asm.Finish(-1); err == nil {
		t.Error("forward edge without its backward twin accepted")
	}
}
