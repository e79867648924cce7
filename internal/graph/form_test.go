package graph_test

import (
	"runtime"
	"testing"

	"graphflow/internal/datagen"
	"graphflow/internal/graph"
	"graphflow/internal/live"
)

// directoryBytes returns what g's directory in dir would take in each
// form, from the graph's public reads alone: k = ne·nn positions per
// vertex and the k slots' labels strided; sparse, a position and a label
// per non-empty run (one for a vertex without any), the sentinel's
// position and n+1 first indexes.
func directoryBytes(g *graph.Graph, dir graph.Direction) (strided, sparse int) {
	n, k, entries := g.NumVertices(), g.NumEdgeLabels()*g.NumVertexLabels(), 0
	var runs [][]graph.VertexID
	for v := range n {
		runs = g.NeighborRuns(graph.VertexID(v), dir, graph.WildcardLabel, graph.WildcardLabel, runs[:0])
		entries += max(1, len(runs))
	}
	return 4 * (n*k + 1 + k), 4 * (2*entries + 1 + n + 1)
}

// TestDirectoryFormNeverBigger: on the benchmark's graphs and on Human()
// (44 edge labels) the writer picks the form the arithmetic says it must,
// and the one it keeps is never bigger than the other.
func TestDirectoryFormNeverBigger(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *graph.Graph
		k    int // the stride, 0 for sparse
	}{
		{"LiveJournal(1)", datagen.LiveJournal(1), 1},
		{"Relabel(Epinions(2), 2, 3, 11)", datagen.Relabel(datagen.Epinions(2), 2, 3, 11), 6},
		{"Amazon(8)", datagen.Amazon(8), 1},
		{"Epinions(1)", datagen.Epinions(1), 1},
		{"Human()", datagen.Human(), 0},
	} {
		for _, dir := range []graph.Direction{graph.Forward, graph.Backward} {
			strided, sparse := directoryBytes(c.g, dir)
			got := graph.DirectoryBytes(c.g, dir)
			t.Logf("%s %v: %d B (strided %d B, sparse %d B, %.2f B/edge)", c.name, dir, got, strided, sparse, float64(got)/float64(c.g.NumEdges()))
			if k := graph.Stride(c.g, dir); k != c.k {
				t.Errorf("%s %v: stride %d, want %d", c.name, dir, k, c.k)
			}
			want, other := strided, sparse
			if c.k == 0 {
				want, other = sparse, strided
			}
			if got != want || got > other {
				t.Errorf("%s %v: directory of %d B, want %d B, no more than the other form's %d B", c.name, dir, got, want, other)
			}
		}
	}
}

// TestHighLabelsStaySparse: the catalogue's high-label fixture (vertex
// label 0x4001: 16 386 slots a vertex) is sparse, and building it never
// allocates the strided table it rejected.
func TestHighLabelsStaySparse(t *testing.T) {
	const hi = graph.Label(0x4001)
	b := graph.NewBuilder(0)
	x, m, y := b.AddVertex(hi), b.AddVertex(0), b.AddVertex(hi)
	p, q, r := b.AddVertex(1), b.AddVertex(1), b.AddVertex(1)
	for _, e := range [][2]graph.VertexID{{x, m}, {m, y}, {m, p}, {q, m}, {r, m}} {
		b.AddEdge(e[0], e[1], 0)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := b.MustBuild()
	runtime.ReadMemStats(&after)
	for _, dir := range []graph.Direction{graph.Forward, graph.Backward} {
		if k := graph.Stride(g, dir); k != 0 {
			t.Errorf("%v: strided with %d slots a vertex", dir, k)
		}
	}
	if table := 4 * g.NumVertices() * g.NumVertexLabels(); after.TotalAlloc-before.TotalAlloc >= uint64(table) {
		t.Errorf("Build allocated %d B, as much as the %d-B strided table it rejected", after.TotalAlloc-before.TotalAlloc, table)
	}
}

// TestOutOfRangeLabelsReadNothing: a strided lookup whose edge or
// neighbour label is past the graph's — where v·k + e·nn + n would land
// on another pair of v, or on the next vertex — reads nothing, directly
// and through a snapshot whose overlay brought in an edge label the base
// lacks.
func TestOutOfRangeLabelsReadNothing(t *testing.T) {
	b := graph.NewBuilder(4)
	b.SetVertexLabel(1, 1)
	b.SetVertexLabel(3, 1)
	for _, e := range []edge{{0, 1, 0}, {0, 2, 0}, {0, 1, 1}, {0, 2, 1}, {1, 0, 0}, {1, 3, 0}, {1, 2, 1}, {2, 3, 1}, {3, 0, 0}, {3, 1, 1}} {
		b.AddEdge(e.src, e.dst, e.l)
	}
	g := b.MustBuild()
	for _, dir := range []graph.Direction{graph.Forward, graph.Backward} {
		if k := graph.Stride(g, dir); k != 4 {
			t.Fatalf("fixture: %v stride %d, want 4 (2 edge × 2 vertex labels)", dir, k)
		}
	}
	db, err := live.Open(g, live.Config{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Apply(live.Batch{AddEdges: []live.EdgeOp{{Src: 2, Dst: 0, Label: 2}}}); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	if snap.NumEdgeLabels() != 3 || g.NumEdgeLabels() != 2 {
		t.Fatalf("fixture: %d edge labels in the snapshot, %d in the base", snap.NumEdgeLabels(), g.NumEdgeLabels())
	}
	const w = graph.WildcardLabel
	pairs := [][2]graph.Label{
		{2, 0}, {2, 1}, {3, 0}, {0, 2}, {1, 2}, {0, 3}, {2, 2}, {0xFFFE, 0}, {0, 0xFFFE},
		{2, w}, {3, w}, {0xFFFE, w}, {w, 2}, {w, 3}, {w, 0xFFFE},
	}
	for name, view := range map[string]graph.View{"graph": g, "snapshot": snap} {
		for v := graph.VertexID(0); v < 4; v++ {
			for _, dir := range []graph.Direction{graph.Forward, graph.Backward} {
				if name == "snapshot" && (v == 2 && dir == graph.Forward || v == 0 && dir == graph.Backward) {
					continue // the overlay's own vertices: the label exists there
				}
				for _, l := range pairs {
					e, n := l[0], l[1]
					if got := view.Neighbors(v, dir, e, n, nil); len(got) != 0 {
						t.Errorf("%s: Neighbors(%d, %v, %d, %d) = %v, want none", name, v, dir, e, n, got)
					}
					if got := view.NeighborRuns(v, dir, e, n, nil); len(got) != 0 {
						t.Errorf("%s: NeighborRuns(%d, %v, %d, %d) = %v, want none", name, v, dir, e, n, got)
					}
					if got := view.Degree(v, dir, e, n); got != 0 {
						t.Errorf("%s: Degree(%d, %v, %d, %d) = %d, want 0", name, v, dir, e, n, got)
					}
				}
				if dir == graph.Forward {
					for dst := graph.VertexID(0); dst < 4; dst++ {
						if view.HasEdge(v, dst, 2) || view.HasEdge(v, dst, 3) {
							t.Errorf("%s: HasEdge(%d, %d) true for a label the base lacks", name, v, dst)
						}
					}
				}
			}
		}
	}
}
