package live

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"graphflow/internal/graph"
)

// unlabelledBase is randomBase with every label 0: one partition per
// vertex and direction, so a delete that empties it empties the vertex.
func unlabelledBase(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n*3; i++ {
		b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)), 0)
	}
	return b.MustBuild()
}

// withHub returns g with vertex 0 pointing at every other vertex under
// edge label 0: runs far longer than the rest for the fold to carry.
func withHub(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.NumVertices())
	for v := range g.NumVertices() {
		b.SetVertexLabel(graph.VertexID(v), g.VertexLabel(graph.VertexID(v)))
		b.AddEdge(0, graph.VertexID(v), 0)
	}
	g.Edges(func(src, dst graph.VertexID, l graph.Label) bool {
		b.AddEdge(src, dst, l)
		return true
	})
	return b.MustBuild()
}

// isolate returns the batch that deletes every edge at v, both ways.
func isolate(s *Snapshot, v graph.VertexID) Batch {
	var b Batch
	s.Edges(func(src, dst graph.VertexID, l graph.Label) bool {
		if src == v || dst == v {
			b.DeleteEdges = append(b.DeleteEdges, EdgeOp{Src: src, Dst: dst, Label: l})
		}
		return true
	})
	return b
}

// checkFold verifies that the merged fold of s is, array for array, the
// CSR the Builder oracle sorts its way to, and that snapshot, fold and
// oracle answer the View surface alike.
func checkFold(t *testing.T, s *Snapshot, rng *rand.Rand) {
	t.Helper()
	want, err := Rebuild(s)
	if err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	got, err := fold(s)
	if err != nil {
		t.Fatalf("fold: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("epoch %d: fold differs structurally from Rebuild:\n got %+v\nwant %+v", s.epoch, got, want)
	}
	checkViewsAgree(t, s, want, rng)
	checkViewsAgree(t, got, want, rng)
}

// TestFoldMatchesRebuild: for random mutation histories — labelled and
// unlabelled, with appended vertices, partitions and whole vertices
// emptied by deletes, a base with and without a hub vertex, folds taken
// over a base that is itself a fold — the merged fold equals the
// from-scratch build.
func TestFoldMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		labelled, hubs := seed%2 == 0, seed%4 < 2
		name := fmt.Sprintf("seed=%d/labelled=%v/hubs=%v", seed, labelled, hubs)
		t.Run(name, func(t *testing.T) {
			n := 15 + rng.Intn(25)
			base := unlabelledBase(rng, n)
			if labelled {
				base = randomBase(rng, n)
			}
			if hubs {
				base = withHub(base)
			}
			db := mustOpen(t, base, Config{CompactThreshold: -1})
			checkFold(t, db.Snapshot(), rng) // nothing to merge: the base itself
			for round := 0; round < 8; round++ {
				b := randomBatch(rng, db.Snapshot())
				if !labelled {
					for i := range b.AddVertices {
						b.AddVertices[i] = 0
					}
					for i := range b.AddEdges {
						b.AddEdges[i].Label = 0
					}
				}
				if round%3 == 1 {
					b = isolate(db.Snapshot(), graph.VertexID(rng.Intn(db.Snapshot().NumVertices())))
				}
				if _, err := db.Apply(b); err != nil {
					t.Fatal(err)
				}
				checkFold(t, db.Snapshot(), rng)
				if round == 4 {
					if err := db.Compact(); err != nil {
						t.Fatal(err)
					}
					checkFold(t, db.Snapshot(), rng)
				}
			}
		})
	}
}

// TestCarryInTwoSteps: a compaction carries what was written during its
// fold over the new base in two steps, the second under the writer lock
// for what arrived during the first. Whatever the three snapshots (folded,
// seen by the first step, current) share or not, the result must equal
// the current snapshot rebuilt from scratch, vertices appended and
// adjacencies touched in both steps included.
func TestCarryInTwoSteps(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := mustOpen(t, randomBase(rng, 30), Config{CompactThreshold: -1})
		apply := func(n int) *Snapshot {
			for i := 0; i < n; i++ {
				if _, err := db.Apply(randomBatch(rng, db.Snapshot())); err != nil {
					t.Fatal(err)
				}
			}
			return db.Snapshot()
		}
		s := apply(3)
		mid := apply(int(seed % 3)) // 0: nothing was written during the fold
		cur := apply(int(seed / 3 % 3))
		g, err := fold(s)
		if err != nil {
			t.Fatal(err)
		}
		ns := newBaseSnapshot(g, 0)
		ns.carry(s, mid, s.epoch)
		ns.carry(s, cur, mid.epoch)
		if ns.epoch != cur.epoch+1 || ns.deltaOps != cur.deltaOps-s.deltaOps || ns.NumEdges() != cur.NumEdges() {
			t.Fatalf("seed %d: carried to epoch %d, %d delta ops, %d edges; cur is at %d, %d past the fold, %d",
				seed, ns.epoch, ns.deltaOps, ns.NumEdges(), cur.epoch, cur.deltaOps-s.deltaOps, cur.NumEdges())
		}
		want, err := Rebuild(cur)
		if err != nil {
			t.Fatal(err)
		}
		checkViewsAgree(t, ns, want, rng)
		checkFold(t, ns, rng)
	}
}

// held is one published snapshot and what it showed at publication.
type held struct {
	s     *Snapshot
	m     int
	edges []EdgeOp
}

func hold(s *Snapshot) held { return held{s, s.NumEdges(), collectEdges(s)} }

// TestHeldSnapshotsSurviveCompactions holds the snapshot of every epoch
// over 500 batches and two compactions — the second with the writer
// running through its fold — then re-reads each: path-copied index
// nodes, shared appended-vertex labels and rebased adjacencies must all
// leave a published epoch exactly as it was. Run under -race.
func TestHeldSnapshotsSurviveCompactions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := mustOpen(t, randomBase(rng, 40), Config{CompactThreshold: -1})
	const batches = 500
	at := make(chan int) // the writer reports every batch it applied
	var all []held
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(at)
		for i := 0; i < batches; i++ {
			if _, err := db.Apply(randomBatch(rng, db.Snapshot())); err != nil {
				t.Errorf("batch %d: %v", i, err)
				return
			}
			all = append(all, hold(db.Snapshot()))
			at <- i
		}
	}()
	// The racing pass holds its fold until the writer has published ten
	// more epochs, so the rebase has a delta to carry.
	racing := false
	db.SetCompactionHook(func(st CompactStage) {
		if st == StageFrozen && racing {
			for k := 0; k < 10; k++ {
				<-at
			}
		}
	})
	var compacted []held
	for i := range at {
		if i == 150 || i == 300 {
			racing = i == 300
			before := db.Snapshot()
			if err := db.Compact(); err != nil {
				t.Fatal(err)
			}
			s := db.Snapshot()
			if racing && s.DeltaOps() == 0 {
				t.Error("racing compaction carried no delta")
			}
			if s.DeltaOps() >= before.DeltaOps() {
				t.Errorf("compaction left %d delta ops of %d", s.DeltaOps(), before.DeltaOps())
			}
			compacted = append(compacted, hold(s))
		}
	}
	wg.Wait()
	if db.Compactions() != 2 || db.folds.Load() != 2 {
		t.Fatalf("%d compactions, %d folds, want 2 and 2", db.Compactions(), db.folds.Load())
	}
	for _, h := range append(all, compacted...) {
		if h.s.NumEdges() != h.m || !reflect.DeepEqual(collectEdges(h.s), h.edges) {
			t.Fatalf("snapshot of epoch %d changed after publication", h.s.Epoch())
		}
	}
	checkEquivalent(t, db.Snapshot(), rng)
}

// TestSustainedWriterCompaction drives a writer against a small
// threshold. Every pass folds once and publishes once; a batch applied
// from inside a pass, on either side of its fold, goes straight through
// (the writer lock is not held there); the background compactor keeps
// folding until the overlay is back under the threshold; and the final
// state equals the shadow edge set.
func TestSustainedWriterCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	base := randomBase(rng, 60)
	const threshold = 64
	db := mustOpen(t, base, Config{CompactThreshold: threshold})
	shadow := map[EdgeOp]bool{}
	for _, e := range collectEdges(db.Snapshot()) {
		shadow[e] = true
	}
	// Each hook call toggles one edge, under a label the writer never
	// uses, from inside the compaction pass.
	var inPass int
	db.SetCompactionHook(func(st CompactStage) {
		if st == StageRebased {
			return
		}
		e := EdgeOp{Src: graph.VertexID(inPass % 60), Dst: graph.VertexID((inPass + 7) % 60), Label: 5}
		if _, err := db.Apply(Batch{AddEdges: []EdgeOp{e}, DeleteEdges: []EdgeOp{e}}); err != nil {
			t.Errorf("apply inside a pass: %v", err)
		}
		inPass++
	})
	for i := 0; i < 400; i++ {
		b := randomBatch(rng, db.Snapshot())
		b.AddVertices = nil // randomBatch aims some edges at the vertices it appends
		for _, ops := range [][]EdgeOp{b.AddEdges, b.DeleteEdges} {
			for j := range ops {
				ops[j].Src %= 60
				ops[j].Dst %= 60
			}
		}
		for _, e := range b.AddEdges {
			if e.Src != e.Dst {
				shadow[e] = true
			}
		}
		for _, e := range b.DeleteEdges {
			delete(shadow, e)
		}
		if _, err := db.Apply(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	db.WaitCompaction()
	if db.Compactions() < 3 {
		t.Fatalf("only %d compactions over 400 batches at threshold %d", db.Compactions(), threshold)
	}
	if f, c := db.folds.Load(), db.Compactions(); f != c {
		t.Fatalf("%d folds for %d published compactions", f, c)
	}
	if d := db.Snapshot().DeltaOps(); d >= threshold {
		t.Fatalf("background compactor stopped with %d delta ops, threshold %d", d, threshold)
	}
	if inPass != int(2*db.Compactions()) {
		t.Fatalf("%d batches applied from inside %d passes", inPass, db.Compactions())
	}
	got := map[EdgeOp]bool{}
	for _, e := range collectEdges(db.Snapshot()) {
		got[e] = true
	}
	if !reflect.DeepEqual(got, shadow) {
		t.Fatalf("final edge set (%d) differs from the shadow (%d)", len(got), len(shadow))
	}
	checkEquivalent(t, db.Snapshot(), rng)
}

// TestForcedCompactDuringBackgroundPass: a Compact() issued while the
// background compactor is mid-pass waits its turn and folds only what
// is left; on an empty overlay it publishes nothing.
func TestForcedCompactDuringBackgroundPass(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	db := mustOpen(t, randomBase(rng, 30), Config{CompactThreshold: 20})
	frozen, release := make(chan struct{}), make(chan struct{})
	first := true
	db.SetCompactionHook(func(st CompactStage) {
		if st == StageFrozen && first {
			first = false
			close(frozen)
			<-release
		}
	})
	for db.Snapshot().DeltaOps() < 20 {
		if _, err := db.Apply(randomBatch(rng, db.Snapshot())); err != nil {
			t.Fatal(err)
		}
	}
	<-frozen // the background pass is holding its fold
	forced := make(chan error)
	go func() { forced <- db.Compact() }()
	if _, err := db.Apply(Batch{AddVertices: []graph.Label{1}}); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-forced; err != nil {
		t.Fatal(err)
	}
	db.WaitCompaction()
	// The background pass folded the overlay, the forced one the vertex
	// appended meanwhile.
	if c := db.Compactions(); c != 2 {
		t.Fatalf("%d compactions, want 2", c)
	}
	s := db.Snapshot()
	if s.DeltaOps() != 0 || len(s.extra) != 0 || s.fwd.root != nil {
		t.Fatalf("overlay left after both passes: %d ops, %d appended", s.DeltaOps(), len(s.extra))
	}
	epoch := db.Epoch()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if db.Epoch() != epoch || db.Compactions() != 2 {
		t.Fatalf("compacting an empty overlay published epoch %d (was %d)", db.Epoch(), epoch)
	}
	checkEquivalent(t, s, rng)
}
