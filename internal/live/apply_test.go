package live

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"graphflow/internal/datagen"
	"graphflow/internal/graph"
)

// toggles is a pair of 32-add + 32-delete batches over one fixed set of
// 64 edges: a adds the absent half and deletes the present half, b undoes
// it, so applying them in turn mutates the same vertices for ever.
type toggles struct{ a, b Batch }

func newToggles(rng *rand.Rand, s *Snapshot) toggles {
	var tg toggles
	n := s.NumVertices()
	for len(tg.a.AddEdges) < 32 {
		e := EdgeOp{Src: graph.VertexID(rng.Intn(n)), Dst: graph.VertexID(rng.Intn(n))}
		if e.Src != e.Dst && !s.HasEdge(e.Src, e.Dst, 0) {
			tg.a.AddEdges = append(tg.a.AddEdges, e)
		}
	}
	for len(tg.a.DeleteEdges) < 32 {
		src := graph.VertexID(rng.Intn(n))
		s.EdgesOf(src, func(src, dst graph.VertexID, l graph.Label) bool {
			tg.a.DeleteEdges = append(tg.a.DeleteEdges, EdgeOp{Src: src, Dst: dst, Label: l})
			return false
		})
	}
	tg.b = Batch{AddEdges: tg.a.DeleteEdges, DeleteEdges: tg.a.AddEdges}
	return tg
}

// storeWithOverlay opens an uncompacted store over the ingest-heavy
// benchmark's graph and grows its overlay to deltaOps mutations.
func storeWithOverlay(tb testing.TB, deltaOps int) (*DB, *rand.Rand) {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	db, err := Open(datagen.Amazon(8), Config{CompactThreshold: -1})
	if err != nil {
		tb.Fatal(err)
	}
	for db.Snapshot().DeltaOps() < deltaOps {
		if _, err := db.Apply(newToggles(rng, db.Snapshot()).a); err != nil {
			tb.Fatal(err)
		}
	}
	return db, rng
}

// TestApplyAllocsCeiling is the deterministic twin of the write path's
// timing claim: what one 32+32 batch allocates does not depend on how
// many mutations the overlay already holds.
func TestApplyAllocsCeiling(t *testing.T) {
	measure := func(deltaOps int) float64 {
		db, rng := storeWithOverlay(t, deltaOps)
		tg := newToggles(rng, db.Snapshot())
		next := tg.a
		// The first two rounds build the paths; from then on every round
		// copies the same nodes and adjacencies.
		for i := 0; i < 2; i++ {
			db.Apply(tg.a)
			db.Apply(tg.b)
		}
		return testing.AllocsPerRun(50, func() {
			if res, err := db.Apply(next); err != nil || res.AddedEdges != 32 || res.DeletedEdges != 32 {
				t.Fatalf("toggle applied %+v, %v", res, err)
			}
			if next.AddEdges[0] == tg.a.AddEdges[0] {
				next = tg.b
			} else {
				next = tg.a
			}
		})
	}
	empty, full := measure(0), measure(16<<10)
	t.Logf("allocs per 32+32 batch: %.0f on an empty overlay, %.0f at 16 k delta ops", empty, full)
	if full > empty+16 || full < empty-16 {
		t.Fatalf("allocations per batch move with the overlay: %.0f at 0 delta ops, %.0f at 16 k", empty, full)
	}
	// 128 adjacency copies (64 edges, both directions) of two allocations
	// each — the vadj, and one block holding its directory and its
	// neighbours — plus their index paths and the snapshot: 505. The cap
	// is 10 % above that, so a third allocation per copy (+128) fails.
	if empty > 555 {
		t.Fatalf("%.0f allocations for one 32+32 batch", empty)
	}
}

func BenchmarkApply(b *testing.B) {
	for _, ops := range []int{0, 4 << 10, 16 << 10} {
		b.Run(fmt.Sprintf("overlay=%dk", ops>>10), func(b *testing.B) {
			db, rng := storeWithOverlay(b, ops)
			tg := newToggles(rng, db.Snapshot())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next := tg.a
				if i%2 == 1 {
					next = tg.b
				}
				if _, err := db.Apply(next); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSnapshotReadsZeroAllocs: the read methods the executor calls per
// extension stay allocation-free through the index — on a vertex in the
// overlay, on one beside it, and while the overlay is empty.
func TestSnapshotReadsZeroAllocs(t *testing.T) {
	db, _ := storeWithOverlay(t, 0)
	empty := db.Snapshot()
	if _, err := db.Apply(Batch{AddEdges: []EdgeOp{{Src: 10, Dst: 20000}}}); err != nil {
		t.Fatal(err)
	}
	s := db.Snapshot()
	if s.fwd.get(10) == nil || s.fwd.get(11) != nil || empty.fwd.root != nil {
		t.Fatal("fixture: vertex 10 should be the only forward overlay entry")
	}
	buf := make([]graph.VertexID, 0, 64)
	for _, c := range []struct {
		name string
		s    *Snapshot
		v    graph.VertexID
	}{{"overlay hit", s, 10}, {"overlay miss", s, 11}, {"empty overlay", empty, 10}} {
		if n := testing.AllocsPerRun(100, func() {
			_ = c.s.Neighbors(c.v, graph.Forward, 0, 0, buf)
			_ = c.s.Degree(c.v, graph.Forward, 0, graph.WildcardLabel)
			_ = c.s.HasEdge(c.v, 20000, 0)
		}); n != 0 {
			t.Errorf("%s: %.0f allocs per round of reads", c.name, n)
		}
	}
}

// TestWildcardReadsZeroAllocs: a graph.NeighborReader reads wildcard
// adjacency through a snapshot without allocating — an overlay vertex and
// a base vertex beside it, two and three matching partitions — and sees
// what Neighbors returns. gfvet cannot follow Read through the graph.View
// interface; the overlay's partition walk used to collect its runs in a
// fresh slice per lookup.
func TestWildcardReadsZeroAllocs(t *testing.T) {
	b := graph.NewBuilder(40)
	for v := graph.VertexID(0); v < 2; v++ {
		for l := graph.Label(0); l < 2; l++ {
			for d := 2; d < 30; d += int(l) + 2 {
				b.AddEdge(v, graph.VertexID(d), l)
			}
		}
	}
	db := mustOpen(t, b.MustBuild(), Config{CompactThreshold: -1})
	if _, err := db.Apply(Batch{AddEdges: []EdgeOp{{Src: 0, Dst: 5, Label: 2}, {Src: 0, Dst: 6, Label: 2}}}); err != nil {
		t.Fatal(err)
	}
	s := db.Snapshot()
	if s.fwd.get(0) == nil || s.fwd.get(1) != nil {
		t.Fatal("fixture: vertex 0 should be the only forward overlay entry")
	}
	for _, c := range []struct {
		name  string
		v     graph.VertexID
		e     graph.Label
		parts int
	}{
		{"overlay vertex, three partitions", 0, graph.WildcardLabel, 3},
		{"base vertex, two partitions", 1, graph.WildcardLabel, 2},
	} {
		if got := len(s.NeighborRuns(c.v, graph.Forward, c.e, 0, nil)); got != c.parts {
			t.Fatalf("%s: fixture matches %d partitions", c.name, got)
		}
		var r graph.NeighborReader
		got := r.Read(s, c.v, graph.Forward, c.e, 0)
		want := s.Neighbors(c.v, graph.Forward, c.e, 0, nil)
		if !slices.Equal(got, want) || len(got) != s.Degree(c.v, graph.Forward, c.e, 0) || !slices.IsSorted(got) {
			t.Fatalf("%s: Read = %v, Neighbors = %v", c.name, got, want)
		}
		if n := testing.AllocsPerRun(100, func() {
			_ = r.Read(s, c.v, graph.Forward, c.e, 0)
			_ = r.Read(s, c.v, graph.Forward, c.e, graph.WildcardLabel)
		}); n != 0 {
			t.Errorf("%s: %.0f allocs per round of wildcard reads", c.name, n)
		}
	}
}

// TestAppendedLabelsSharedAcrossEpochs: snapshots share one append-only
// array of appended-vertex labels. A thousand epochs each append a
// vertex while every earlier snapshot stays held; a batch built and then
// discarded (as after a failed log append) scribbles only past every
// published length.
func TestAppendedLabelsSharedAcrossEpochs(t *testing.T) {
	db := mustOpen(t, graph.NewBuilder(3).MustBuild(), Config{CompactThreshold: -1})
	label := func(i int) graph.Label { return graph.Label(i % 7) }
	var snaps []*Snapshot
	for i := 0; i < 1000; i++ {
		cur := db.Snapshot()
		if _, _, err := applyBatch(cur, Batch{AddVertices: []graph.Label{100, 101}}, cur.epoch+1); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Apply(Batch{
			AddVertices: []graph.Label{label(i)},
			AddEdges:    []EdgeOp{{Src: graph.VertexID(3 + i), Dst: graph.VertexID(i % 3)}},
		}); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, db.Snapshot())
		if i == 500 {
			if err := db.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, s := range snaps {
		if s.NumVertices() != 4+i {
			t.Fatalf("snapshot %d grew to %d vertices", i, s.NumVertices())
		}
		for j := 0; j <= i; j++ {
			if got := s.VertexLabel(graph.VertexID(3 + j)); got != label(j) {
				t.Fatalf("snapshot %d: appended vertex %d reads label %d, want %d", i, j, got, label(j))
			}
		}
	}
}
