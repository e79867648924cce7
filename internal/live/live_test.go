package live

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"graphflow/internal/graph"
)

// mustOpen wraps Open for tests that use ephemeral (non-durable)
// configs, where Open cannot fail.
func mustOpen(t *testing.T, base *graph.Graph, cfg Config) *DB {
	t.Helper()
	db, err := Open(base, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

// randomBase builds a random labelled base graph.
func randomBase(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetVertexLabel(graph.VertexID(v), graph.Label(rng.Intn(3)))
	}
	for i := 0; i < n*3; i++ {
		b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)), graph.Label(rng.Intn(2)))
	}
	return b.MustBuild()
}

// randomBatch draws mutations against a snapshot's current dimensions:
// vertex appends, edge adds (including duplicates, self-loops and edges
// to brand-new vertices) and deletes (existing and absent).
func randomBatch(rng *rand.Rand, s *Snapshot) Batch {
	var b Batch
	for i := rng.Intn(3); i > 0; i-- {
		b.AddVertices = append(b.AddVertices, graph.Label(rng.Intn(3)))
	}
	nAfter := s.NumVertices() + len(b.AddVertices)
	for i := rng.Intn(20); i > 0; i-- {
		b.AddEdges = append(b.AddEdges, EdgeOp{
			Src:   graph.VertexID(rng.Intn(nAfter)),
			Dst:   graph.VertexID(rng.Intn(nAfter)),
			Label: graph.Label(rng.Intn(2)),
		})
	}
	// Deletes: mostly existing edges, some absent ones.
	var existing []EdgeOp
	s.Edges(func(src, dst graph.VertexID, l graph.Label) bool {
		existing = append(existing, EdgeOp{Src: src, Dst: dst, Label: l})
		return true
	})
	for i := rng.Intn(12); i > 0 && len(existing) > 0; i-- {
		b.DeleteEdges = append(b.DeleteEdges, existing[rng.Intn(len(existing))])
	}
	for i := rng.Intn(4); i > 0; i-- {
		b.DeleteEdges = append(b.DeleteEdges, EdgeOp{
			Src:   graph.VertexID(rng.Intn(nAfter)),
			Dst:   graph.VertexID(rng.Intn(nAfter)),
			Label: graph.Label(rng.Intn(2)),
		})
	}
	return b
}

// collectEdges drains a View's Edges iterator.
func collectEdges(g graph.View) []EdgeOp {
	var out []EdgeOp
	g.Edges(func(src, dst graph.VertexID, l graph.Label) bool {
		out = append(out, EdgeOp{Src: src, Dst: dst, Label: l})
		return true
	})
	return out
}

// checkEquivalent verifies that the snapshot and a from-scratch rebuild
// of its logical graph agree across the whole View surface.
func checkEquivalent(t *testing.T, s *Snapshot, rng *rand.Rand) {
	t.Helper()
	want, err := Rebuild(s)
	if err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	checkViewsAgree(t, s, want, rng)
}

// checkViewsAgree verifies that got answers every graph.View method as
// the oracle graph does.
func checkViewsAgree(t *testing.T, got graph.View, want *graph.Graph, rng *rand.Rand) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() {
		t.Fatalf("NumVertices %d, oracle %d", got.NumVertices(), want.NumVertices())
	}
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("NumEdges %d, oracle %d", got.NumEdges(), want.NumEdges())
	}
	if got.NumVertexLabels() < want.NumVertexLabels() || got.NumEdgeLabels() < want.NumEdgeLabels() {
		t.Fatalf("label counts %d/%d below the oracle's %d/%d",
			got.NumVertexLabels(), got.NumEdgeLabels(), want.NumVertexLabels(), want.NumEdgeLabels())
	}
	if !reflect.DeepEqual(collectEdges(got), collectEdges(want)) {
		t.Fatalf("Edges iteration diverges from the oracle")
	}
	n := got.NumVertices()
	labels := []graph.Label{0, 1, 2, graph.WildcardLabel}
	for v := 0; v < n; v++ {
		id := graph.VertexID(v)
		if got.VertexLabel(id) != want.VertexLabel(id) {
			t.Fatalf("VertexLabel(%d) = %d, oracle %d", v, got.VertexLabel(id), want.VertexLabel(id))
		}
		if got.OutDegree(id) != want.OutDegree(id) || got.InDegree(id) != want.InDegree(id) {
			t.Fatalf("degree mismatch at %d: out %d/%d in %d/%d",
				v, got.OutDegree(id), want.OutDegree(id), got.InDegree(id), want.InDegree(id))
		}
		var of []EdgeOp
		got.EdgesOf(id, func(src, dst graph.VertexID, l graph.Label) bool {
			of = append(of, EdgeOp{Src: src, Dst: dst, Label: l})
			return true
		})
		var oracleOf []EdgeOp
		want.EdgesOf(id, func(src, dst graph.VertexID, l graph.Label) bool {
			oracleOf = append(oracleOf, EdgeOp{Src: src, Dst: dst, Label: l})
			return true
		})
		if !reflect.DeepEqual(of, oracleOf) {
			t.Fatalf("EdgesOf(%d): %v, oracle %v", v, of, oracleOf)
		}
		for _, dir := range []graph.Direction{graph.Forward, graph.Backward} {
			for _, el := range labels {
				for _, nl := range labels {
					nbrs := got.Neighbors(id, dir, el, nl, nil)
					ref := want.Neighbors(id, dir, el, nl, nil)
					if len(nbrs) != len(ref) {
						t.Fatalf("Neighbors(%d,%v,%d,%d): %v vs oracle %v", v, dir, el, nl, nbrs, ref)
					}
					for i := range nbrs {
						if nbrs[i] != ref[i] {
							t.Fatalf("Neighbors(%d,%v,%d,%d): %v vs oracle %v", v, dir, el, nl, nbrs, ref)
						}
					}
					if d, rd := got.Degree(id, dir, el, nl), want.Degree(id, dir, el, nl); d != rd {
						t.Fatalf("Degree(%d,%v,%d,%d) = %d, oracle %d", v, dir, el, nl, d, rd)
					}
				}
			}
		}
	}
	for i := 0; i < 200; i++ {
		src := graph.VertexID(rng.Intn(n))
		dst := graph.VertexID(rng.Intn(n))
		for _, el := range labels {
			if got.HasEdge(src, dst, el) != want.HasEdge(src, dst, el) {
				t.Fatalf("HasEdge(%d,%d,%d) = %v, oracle %v",
					src, dst, el, got.HasEdge(src, dst, el), want.HasEdge(src, dst, el))
			}
		}
	}
}

func TestOverlayMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := mustOpen(t, randomBase(rng, 20+rng.Intn(20)), Config{CompactThreshold: -1})
		for batch := 0; batch < 6; batch++ {
			if _, err := db.Apply(randomBatch(rng, db.Snapshot())); err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, batch, err)
			}
			checkEquivalent(t, db.Snapshot(), rng)
		}
	}
}

func TestSnapshotIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	db := mustOpen(t, randomBase(rng, 30), Config{CompactThreshold: -1})
	before := db.Snapshot()
	edgesBefore := collectEdges(before)
	mBefore := before.NumEdges()

	for i := 0; i < 5; i++ {
		if _, err := db.Apply(randomBatch(rng, db.Snapshot())); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if before.NumEdges() != mBefore {
		t.Fatalf("old snapshot's edge count changed: %d -> %d", mBefore, before.NumEdges())
	}
	if !reflect.DeepEqual(collectEdges(before), edgesBefore) {
		t.Fatal("old snapshot's edges changed after later mutations and compaction")
	}
	if db.Epoch() <= before.Epoch() {
		t.Fatalf("epoch did not advance: %d vs %d", db.Epoch(), before.Epoch())
	}
}

func TestCompactionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := mustOpen(t, randomBase(rng, 25), Config{CompactThreshold: -1})
	for i := 0; i < 4; i++ {
		if _, err := db.Apply(randomBatch(rng, db.Snapshot())); err != nil {
			t.Fatal(err)
		}
	}
	beforeEdges := collectEdges(db.Snapshot())
	epoch := db.Epoch()
	if err := db.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	s := db.Snapshot()
	if s.Epoch() != epoch+1 {
		t.Fatalf("compaction epoch %d, want %d", s.Epoch(), epoch+1)
	}
	if s.DeltaOps() != 0 || s.fwd.root != nil || s.bwd.root != nil {
		t.Fatalf("compacted snapshot still has an overlay: %d ops, roots %p %p", s.DeltaOps(), s.fwd.root, s.bwd.root)
	}
	if !reflect.DeepEqual(collectEdges(s), beforeEdges) {
		t.Fatal("compaction changed the logical edge set")
	}
	// Compacting an empty overlay is a no-op and must not bump the epoch.
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if db.Epoch() != s.Epoch() {
		t.Fatalf("no-op compaction bumped epoch to %d", db.Epoch())
	}
}

// TestOnEpochSeesEachPublishedSnapshotOnce checks the epoch hook's
// contract: one call per Apply that changes the graph and one per Compact
// that folds an overlay, each with the snapshot it published, and none
// for a batch of no-ops or a Compact with nothing to fold.
func TestOnEpochSeesEachPublishedSnapshotOnce(t *testing.T) {
	var seen []*Snapshot
	db := mustOpen(t, graph.NewBuilder(4).MustBuild(), Config{
		CompactThreshold: -1,
		OnEpoch:          func(s *Snapshot) { seen = append(seen, s) },
	})
	step := func(name string, do func() error, publishes bool) {
		t.Helper()
		seen = nil
		before := db.Snapshot()
		if err := do(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cur := db.Snapshot()
		switch {
		case !publishes && (len(seen) != 0 || cur != before):
			t.Fatalf("%s published %d snapshots to the hook (epoch %d -> %d), want none", name, len(seen), before.Epoch(), cur.Epoch())
		case publishes && (len(seen) != 1 || seen[0] != cur || cur.Epoch() != before.Epoch()+1):
			t.Fatalf("%s: hook saw %d snapshots, want exactly the published epoch %d", name, len(seen), before.Epoch()+1)
		}
	}
	apply := func(b Batch) func() error {
		return func() error { _, err := db.Apply(b); return err }
	}
	edges := []EdgeOp{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}
	step("apply", apply(Batch{AddEdges: edges}), true)
	step("no-op batch", apply(Batch{
		AddEdges:    []EdgeOp{edges[0], {Src: 3, Dst: 3}},
		DeleteEdges: []EdgeOp{{Src: 2, Dst: 3}},
	}), false)
	step("compact", db.Compact, true)
	if s := db.Snapshot(); s.DeltaOps() != 0 || s.Base().NumEdges() != 2 {
		t.Fatalf("the compaction's snapshot is not rebased: %d overlay ops, %d base edges", s.DeltaOps(), s.Base().NumEdges())
	}
	step("compact with nothing to fold", db.Compact, false)
	step("delete", apply(Batch{DeleteEdges: edges[:1]}), true)
	step("add vertex", apply(Batch{AddVertices: []graph.Label{1}}), true)
}

func TestAddVertexAndEdgesToNewVertices(t *testing.T) {
	db := mustOpen(t, graph.NewBuilder(2).MustBuild(), Config{CompactThreshold: -1})
	res, err := db.Apply(Batch{AddVertices: []graph.Label{2}})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.FirstNewVertex; v != 2 {
		t.Fatalf("new vertex ID %d, want 2", v)
	}
	if res, err := db.Apply(Batch{AddEdges: []EdgeOp{{Src: 0, Dst: 2, Label: 1}}}); err != nil || res.AddedEdges != 1 {
		t.Fatalf("edge to new vertex: %+v err=%v", res, err)
	}
	// Batch that creates a vertex and wires it in one epoch.
	res, err = db.Apply(Batch{
		AddVertices: []graph.Label{1},
		AddEdges:    []EdgeOp{{Src: 3, Dst: 0, Label: 0}, {Src: 2, Dst: 3, Label: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AddedVertices != 1 || res.FirstNewVertex != 3 || res.AddedEdges != 2 {
		t.Fatalf("batch result %+v", res)
	}
	s := db.Snapshot()
	if !s.HasEdge(3, 0, 0) || !s.HasEdge(2, 3, 0) {
		t.Fatal("edges to batch-created vertex missing")
	}
	if s.NumVertexLabels() < 3 || s.NumEdgeLabels() < 2 {
		t.Fatalf("label counts not raised: v=%d e=%d", s.NumVertexLabels(), s.NumEdgeLabels())
	}
	// Dedup and self-loop semantics match the frozen Builder.
	for _, b := range []Batch{
		{AddEdges: []EdgeOp{{Src: 0, Dst: 2, Label: 1}}},    // duplicate
		{AddEdges: []EdgeOp{{Src: 1, Dst: 1, Label: 0}}},    // self-loop
		{DeleteEdges: []EdgeOp{{Src: 0, Dst: 1, Label: 0}}}, // absent
	} {
		if res, err := db.Apply(b); err != nil || res.AddedEdges != 0 || res.DeletedEdges != 0 {
			t.Fatalf("no-op batch %+v applied as %+v err=%v", b, res, err)
		}
	}
}

func TestApplyValidation(t *testing.T) {
	db := mustOpen(t, graph.NewBuilder(3).MustBuild(), Config{CompactThreshold: -1})
	epoch := db.Epoch()
	cases := []Batch{
		{AddEdges: []EdgeOp{{Src: 0, Dst: 99, Label: 0}}},
		{AddEdges: []EdgeOp{{Src: 0, Dst: 1, Label: graph.WildcardLabel}}},
		{AddVertices: []graph.Label{graph.WildcardLabel}},
		{DeleteEdges: []EdgeOp{{Src: 0, Dst: 99, Label: 0}}},
	}
	for i, b := range cases {
		if _, err := db.Apply(b); err == nil {
			t.Errorf("case %d: Apply succeeded, want error", i)
		}
	}
	if db.Epoch() != epoch {
		t.Fatalf("failed batches moved the epoch: %d -> %d", epoch, db.Epoch())
	}
	// An empty batch is a no-op, not an epoch bump.
	if _, err := db.Apply(Batch{}); err != nil {
		t.Fatal(err)
	}
	if db.Epoch() != epoch {
		t.Fatalf("empty batch moved the epoch: %d -> %d", epoch, db.Epoch())
	}
}

// TestConcurrentReadersWritersCompaction drives writers, readers and the
// background compactor together; run under -race this checks the
// copy-on-write publication discipline.
func TestConcurrentReadersWritersCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	db := mustOpen(t, randomBase(rng, 40), Config{CompactThreshold: 25})
	var readers, writers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := db.Snapshot()
				n := s.NumVertices()
				// A consistency invariant that holds within any single
				// snapshot: every edge seen by Edges is visible to HasEdge.
				cnt := 0
				s.Edges(func(src, dst graph.VertexID, l graph.Label) bool {
					cnt++
					if cnt > 50 {
						return false
					}
					if !s.HasEdge(src, dst, l) {
						t.Errorf("edge %d->%d (%d) iterated but not found", src, dst, l)
						return false
					}
					return true
				})
				v := graph.VertexID(rng.Intn(n))
				_ = s.Neighbors(v, graph.Forward, graph.WildcardLabel, graph.WildcardLabel, nil)
				_ = s.InDegree(v)
			}
		}(int64(r))
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed * 131))
			for i := 0; i < 60; i++ {
				if _, err := db.Apply(randomBatch(rng, db.Snapshot())); err != nil {
					t.Errorf("writer: %v", err)
					return
				}
			}
		}(int64(w + 1))
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	db.WaitCompaction()
	if db.Compactions() == 0 {
		t.Log("no background compaction triggered (load-dependent; not an error)")
	}
	checkEquivalent(t, db.Snapshot(), rng)
}
