package graph_test

import (
	"math/rand"
	"runtime"
	"testing"

	"graphflow/internal/datagen"
	"graphflow/internal/graph"
	"graphflow/internal/live"
)

// heapOf returns what build leaves on the heap once collected.
func heapOf(build func() *graph.Graph) (*graph.Graph, uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return g, after.HeapAlloc - before.HeapAlloc
}

// lookupSink keeps BenchmarkNeighbors' reads from being optimised away.
var lookupSink int

// probe is one exact lookup: a vertex and one of its partitions' labels
// (labels (0, 0) for a vertex without one).
type probe struct {
	v    graph.VertexID
	e, n graph.Label
}

func probesOf(g *graph.Graph, k int) []probe {
	rng := rand.New(rand.NewSource(1))
	ps := make([]probe, k)
	for i := range ps {
		v := graph.VertexID(rng.Intn(g.NumVertices()))
		ps[i].v = v
		var labels []probe
		g.EdgesOf(v, func(_, dst graph.VertexID, e graph.Label) bool {
			if p := (probe{v, e, g.VertexLabel(dst)}); len(labels) == 0 || labels[len(labels)-1] != p {
				labels = append(labels, p)
			}
			return true
		})
		if len(labels) > 0 {
			ps[i] = labels[rng.Intn(len(labels))]
		}
	}
	return ps
}

// BenchmarkNeighbors prices reaching one adjacency run: ns per exact
// Neighbors and per exact Degree at a random vertex and one of its
// partitions, on LiveJournal(1) (unlabelled: strided, one
// slot per vertex), on cold-plan's Relabel(Epinions(2), 2, 3, 11) (two
// vertex and three edge labels: strided, six slots per vertex), on Human()
// (44 edge labels: sparse) and through a live.Snapshot over LiveJournal(1),
// with an empty overlay and with one where every probed vertex reads its
// own overlay entry, holding its base edges again after an edge was added
// and deleted. Every call goes through graph.View, as the executor's do.
// heapB/edge is what the graph keeps on the heap per directed edge once
// built.
func BenchmarkNeighbors(b *testing.B) {
	lj, ljBytes := heapOf(func() *graph.Graph { return datagen.LiveJournal(1) })
	cold, coldBytes := heapOf(func() *graph.Graph { return datagen.Relabel(datagen.Epinions(2), 2, 3, 11) })
	human, humanBytes := heapOf(datagen.Human)
	db, err := live.Open(lj, live.Config{CompactThreshold: -1})
	if err != nil {
		b.Fatal(err)
	}
	overlay, err := live.Open(lj, live.Config{CompactThreshold: -1})
	if err != nil {
		b.Fatal(err)
	}
	var toggle live.Batch
	for _, p := range probesOf(lj, 1<<12) {
		w := (p.v + 1) % graph.VertexID(lj.NumVertices())
		for w == p.v || lj.HasEdge(p.v, w, 0) {
			w = (w + 1) % graph.VertexID(lj.NumVertices())
		}
		toggle.AddEdges = append(toggle.AddEdges, live.EdgeOp{Src: p.v, Dst: w})
	}
	for _, batch := range []live.Batch{toggle, {DeleteEdges: toggle.AddEdges}} {
		if _, err := overlay.Apply(batch); err != nil {
			b.Fatal(err)
		}
	}
	if overlay.Snapshot().NumEdges() != lj.NumEdges() {
		b.Fatal("fixture: the overlay changed the edge set")
	}
	for _, c := range []struct {
		name  string
		g     *graph.Graph
		view  graph.View
		bytes uint64
	}{
		{"LiveJournal", lj, lj, ljBytes},
		{"ColdPlan", cold, cold, coldBytes},
		{"Human", human, human, humanBytes},
		{"LiveJournalSnapshot", lj, db.Snapshot(), ljBytes},
		{"LiveJournalOverlay", lj, overlay.Snapshot(), ljBytes},
	} {
		ps := probesOf(c.g, 1<<12)
		for _, op := range []struct {
			name string
			read func(graph.View, probe) int
		}{
			{"Neighbors", func(g graph.View, p probe) int { return len(g.Neighbors(p.v, graph.Forward, p.e, p.n, nil)) }},
			{"Degree", func(g graph.View, p probe) int { return g.Degree(p.v, graph.Forward, p.e, p.n) }},
		} {
			b.Run(c.name+"/"+op.name, func(b *testing.B) {
				sum := 0
				for i := 0; i < b.N; i++ {
					sum += op.read(c.view, ps[i&(len(ps)-1)])
				}
				lookupSink = sum
				b.ReportMetric(float64(c.bytes)/float64(c.g.NumEdges()), "heapB/edge")
			})
		}
	}
}

// TestZeroAllocs: the exact lookups — Neighbors, Degree and HasEdge, on
// a long partition and on a short one — allocate nothing in any directory form, read directly and through a
// live.Snapshot (empty overlay, and a vertex beside an overlay entry).
// gfvet follows the Graph methods; the View interface hides the snapshot's.
func TestZeroAllocs(t *testing.T) {
	fixtures := map[string]*graph.Builder{}
	for _, name := range []string{"strided k=1", "strided k>1", "sparse"} {
		b := graph.NewBuilder(12)
		for d := graph.VertexID(2); d < 8; d++ {
			b.AddEdge(0, d, 0) // vertex 0: a long partition
		}
		b.AddEdge(1, 2, 0) // vertex 1: a short one
		b.AddEdge(10, 9, 0)
		switch name {
		case "strided k>1": // a second partition each for 0 and 1: 2 slots a vertex
			b.AddEdge(0, 11, 1)
			b.AddEdge(1, 3, 1)
		case "sparse": // the same by neighbour label, and 41 edge labels: 82 slots a vertex
			b.SetVertexLabel(11, 1)
			b.AddEdge(0, 11, 0)
			b.AddEdge(1, 3, 1)
			b.AddEdge(1, 4, 40)
		}
		fixtures[name] = b
	}
	views := map[string]graph.View{}
	for name, b := range fixtures {
		g := b.MustBuild()
		if got := form(g, graph.Forward); got != name {
			t.Fatalf("fixture: the %s graph is %s", name, got)
		}
		db, err := live.Open(g, live.Config{CompactThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		views[name] = g
		views[name+"/snapshot"] = db.Snapshot()
		if _, err := db.Apply(live.Batch{AddEdges: []live.EdgeOp{{Src: 10, Dst: 8}}}); err != nil {
			t.Fatal(err)
		}
		views[name+"/overlaySnapshot"] = db.Snapshot()
	}
	for name, g := range views {
		for _, v := range []graph.VertexID{0, 1} {
			if n := testing.AllocsPerRun(100, func() {
				_ = g.Neighbors(v, graph.Forward, 0, 0, nil)
				_ = g.Degree(v, graph.Forward, 0, 0)
				_ = g.HasEdge(v, 2, 0)
			}); n != 0 {
				t.Errorf("%s, vertex %d: %.0f allocs per round of exact lookups", name, v, n)
			}
		}
	}
}
