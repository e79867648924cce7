package graphflow

import (
	"runtime"
	"sync"
	"testing"
)

const triPattern = "a->b, b->c, a->c"

// TestMutationsChangeCounts drives the public mutation API end to end:
// live counts, query results and stats all track the current epoch.
func TestMutationsChangeCounts(t *testing.T) {
	db := tinyDB(t)
	if n, _ := db.Count(triPattern, nil); n != 1 {
		t.Fatalf("seed triangle count = %d, want 1", n)
	}
	v0, e0 := db.NumVertices(), db.NumEdges()

	// Close a second triangle 2->3->4 with 2->4.
	added, err := db.AddEdge(2, 4, 0)
	if err != nil || !added {
		t.Fatalf("AddEdge: added=%v err=%v", added, err)
	}
	if db.NumEdges() != e0+1 {
		t.Fatalf("NumEdges = %d after add, want %d (live epoch, not frozen base)", db.NumEdges(), e0+1)
	}
	if st := db.GraphStats(); st.Edges != e0+1 || st.Vertices != v0 {
		t.Fatalf("GraphStats reports V=%d E=%d, want V=%d E=%d", st.Vertices, st.Edges, v0, e0+1)
	}
	if n, _ := db.Count(triPattern, nil); n != 2 {
		t.Fatalf("triangle count after add = %d, want 2", n)
	}

	// Remove the original triangle's closing edge.
	deleted, err := db.DeleteEdge(0, 2, 0)
	if err != nil || !deleted {
		t.Fatalf("DeleteEdge: deleted=%v err=%v", deleted, err)
	}
	if n, _ := db.Count(triPattern, nil); n != 1 {
		t.Fatalf("triangle count after delete = %d, want 1", n)
	}

	// A batch wiring a new vertex into a third triangle.
	res, err := db.Apply(Batch{
		AddVertices: []uint16{0},
		AddEdges:    []EdgeOp{{Src: 4, Dst: 5, Label: 0}, {Src: 3, Dst: 5, Label: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AddedVertices != 1 || res.FirstNewVertex != 5 || res.AddedEdges != 2 {
		t.Fatalf("Apply result %+v", res)
	}
	if n, _ := db.Count(triPattern, nil); n != 2 {
		t.Fatalf("triangle count after batch = %d, want 2", n)
	}
	ls := db.LiveStats()
	if ls.Epoch != 3 || ls.Vertices != 6 || ls.DeltaOps == 0 {
		t.Fatalf("LiveStats %+v", ls)
	}
}

// ringDB opens a DB over n vertices with edges i->i+1 and i->i+2 (mod n):
// 2n edges and exactly n asymmetric triangles, enough edges that a few
// mutations stay under the statistics-refresh rule (a tenth of 2n).
func ringDB(t *testing.T, n int) *DB {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(uint32(i), uint32((i+1)%n), 0)
		b.AddEdge(uint32(i), uint32((i+2)%n), 0)
	}
	db, err := b.Open(&Options{CatalogueZ: 50, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

const pathPattern = "a->b, b->c"

// TestPlanCacheSurvivesEpochs checks that planning state is decoupled
// from the epoch: after a mutation and after a compaction, with drift
// under the refresh rule, the same pattern hits the plan cache and still
// counts the post-mutation graph, and no catalogue is built.
func TestPlanCacheSurvivesEpochs(t *testing.T) {
	db := ringDB(t, 60)
	if n, _ := db.Count(triPattern, nil); n != 60 {
		t.Fatalf("ring triangle count = %d, want 60", n)
	}
	base := db.PlanCacheStats()
	if base.Misses != 1 || base.Entries != 1 {
		t.Fatalf("first count should plan once: %+v", base)
	}

	// 0->3 closes (0,1,3) and (0,2,3).
	if _, err := db.AddEdge(0, 3, 0); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.Count(triPattern, nil); n != 62 {
		t.Fatalf("triangle count after add = %d, want 62", n)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.Count(triPattern, nil); n != 62 {
		t.Fatalf("triangle count after compaction = %d, want 62", n)
	}
	st := db.PlanCacheStats()
	if st.Misses != base.Misses || st.Hits != base.Hits+2 || st.Evictions != 0 || st.Entries != 1 {
		t.Fatalf("post-mutation and post-compaction counts should hit the cached plan: %+v (base %+v)", st, base)
	}
	cs := db.CatalogueStats()
	if cs.Generation != 0 || cs.Builds != 1 || cs.DriftEdges != 1 || cs.EdgesAtBuild != 120 {
		t.Fatalf("one edge of drift must not refresh statistics, and compaction is not drift: %+v", cs)
	}
}

// TestPreparedRunsOnEveryEpoch checks the prepared-query lifecycle across
// epochs: a PreparedQuery keeps working through mutations and compaction
// with the plan it was prepared with, which never shows up as plan-cache
// traffic, and its first count on a new epoch reuses the pooled scratch
// of the last one — it allocates what a warm count does, give or take a
// few.
func TestPreparedRunsOnEveryEpoch(t *testing.T) {
	db := ringDB(t, 60)
	pq, err := db.Prepare(triPattern)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := pq.Count(nil); n != 60 {
		t.Fatalf("prepared count = %d, want 60", n)
	}
	statsBefore := db.PlanCacheStats()
	plan := pq.PlanDigest()
	const slack = 4
	warm := countMallocs(t, pq, 60)

	if _, err := db.AddEdge(0, 3, 0); err != nil {
		t.Fatal(err)
	}
	if got := countMallocs(t, pq, 62); !raceEnabled && got > warm+slack {
		t.Errorf("first count after Apply: %d allocations, warm count %d", got, warm)
	}
	epochBeforeCompact := db.Epoch()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if db.Epoch() != epochBeforeCompact+1 {
		t.Fatalf("compaction did not bump the epoch: %d -> %d", epochBeforeCompact, db.Epoch())
	}
	if db.LiveStats().DeltaOps != 0 {
		t.Fatalf("overlay not folded: %+v", db.LiveStats())
	}
	if got := countMallocs(t, pq, 62); !raceEnabled && got > warm+slack {
		t.Errorf("first count after Compact: %d allocations, warm count %d", got, warm)
	}
	if st := db.PlanCacheStats(); st != statsBefore {
		t.Fatalf("running at a new epoch touched the plan cache: %+v -> %+v", statsBefore, st)
	}
	if pq.PlanDigest() != plan {
		t.Fatal("plan changed without a new statistics generation")
	}
}

// countMallocs runs pq's count, requires want matches and returns the
// heap allocations the count made. The race detector's sync.Pool drops
// puts, so callers do not bound the result under -race.
func countMallocs(t *testing.T, pq *PreparedQuery, want int64) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := pq.Count(nil)
	runtime.ReadMemStats(&after)
	if err != nil || n != want {
		t.Fatalf("prepared count = %d, %v; want %d", n, err, want)
	}
	return after.Mallocs - before.Mallocs
}

// TestNewGenerationReplansOncePerPattern checks both ways a statistics
// generation is published — RefreshStatistics, and a planner finding the
// graph drifted past the refresh rule — and that each re-plans every
// pattern exactly once, ad hoc and prepared alike.
func TestNewGenerationReplansOncePerPattern(t *testing.T) {
	db := ringDB(t, 60)
	pq, err := db.Prepare(triPattern)
	if err != nil {
		t.Fatal(err)
	}
	patterns := []string{triPattern, pathPattern}
	countAll := func() {
		t.Helper()
		for _, p := range patterns {
			if _, err := db.Count(p, nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := pq.Count(nil); err != nil {
			t.Fatal(err)
		}
	}
	// expectReplan runs every pattern twice and requires one miss per
	// pattern in total: the prepared triangle shares the ad-hoc one's entry.
	expectReplan := func(when string) {
		t.Helper()
		before := db.PlanCacheStats().Misses
		countAll()
		countAll()
		if got := db.PlanCacheStats().Misses - before; got != int64(len(patterns)) {
			t.Fatalf("%s: %d plan-cache misses, want %d (one per pattern)", when, got, len(patterns))
		}
	}
	countAll()

	db.RefreshStatistics()
	if cs := db.CatalogueStats(); cs.Generation != 1 || cs.Builds != 2 || cs.DriftEdges != 0 {
		t.Fatalf("after RefreshStatistics: %+v", cs)
	}
	expectReplan("after RefreshStatistics")

	// Twelve new edges are a tenth of the 120 the catalogue was sampled
	// over. Ingest alone builds nothing; the next planner starts the
	// refresh and still answers, correctly, from the stale generation.
	var b Batch
	for i := 0; i < 12; i++ {
		b.AddEdges = append(b.AddEdges, EdgeOp{Src: uint32(i), Dst: uint32(i + 30), Label: 0})
	}
	release := make(chan struct{})
	var once sync.Once
	releaseRefresh := func() { once.Do(func() { close(release) }) }
	defer releaseRefresh() // a failing assertion must not leave Close waiting
	db.refreshHook = func() { <-release }
	if _, err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	if cs := db.CatalogueStats(); cs.Generation != 1 || cs.Builds != 2 || cs.DriftEdges != 12 {
		t.Fatalf("ingest alone must not build a catalogue: %+v", cs)
	}
	missesBefore := db.PlanCacheStats().Misses
	if n, _ := db.Count(triPattern, nil); n != 60 {
		t.Fatalf("count while the refresh is in flight = %d, want 60 (long chords close no triangle)", n)
	}
	if cs, st := db.CatalogueStats(), db.PlanCacheStats(); cs.Generation != 1 || st.Misses != missesBefore {
		t.Fatalf("a planner must carry on with the stale generation: %+v, misses %d -> %d", cs, missesBefore, st.Misses)
	}
	releaseRefresh()
	db.refreshWG.Wait()
	if cs := db.CatalogueStats(); cs.Generation != 2 || cs.Builds != 3 || cs.DriftEdges != 0 || cs.EdgesAtBuild != 132 {
		t.Fatalf("after the background refresh: %+v", cs)
	}
	expectReplan("after the background refresh")
}

// TestConcurrentPreparedAcrossEpochs runs one PreparedQuery from many
// goroutines while a writer mutates and compacts — the -race exercise
// for the epoch-tracking resolve path (on a graph this small every batch
// also crosses the refresh rule, so generations move underneath too). Every observed count must be a
// value the graph logically held at some epoch (1..3 triangles).
func TestConcurrentPreparedAcrossEpochs(t *testing.T) {
	db := tinyDB(t)
	pq, err := db.Prepare(triPattern)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n, err := pq.Count(nil)
				if err != nil {
					t.Errorf("prepared count: %v", err)
					return
				}
				if n < 1 || n > 3 {
					t.Errorf("count %d outside any epoch's value", n)
					return
				}
			}
		}()
	}
	writerOps := []Batch{
		{AddEdges: []EdgeOp{{Src: 2, Dst: 4, Label: 0}}},                                                       // +triangle 2->3->4
		{AddVertices: []uint16{0}, AddEdges: []EdgeOp{{Src: 4, Dst: 5, Label: 0}, {Src: 3, Dst: 5, Label: 0}}}, // +triangle 3->4->5
		{DeleteEdges: []EdgeOp{{Src: 2, Dst: 4, Label: 0}}},
	}
	for i, b := range writerOps {
		if _, err := db.Apply(b); err != nil {
			t.Fatalf("writer batch %d: %v", i, err)
		}
		if i == 1 {
			if err := db.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	db.WaitCompaction()
	if n, _ := pq.Count(nil); n != 2 {
		t.Fatalf("final count = %d, want 2", n)
	}
}
