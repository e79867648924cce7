package graphflow

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"graphflow/internal/graph"
	"graphflow/internal/live"
)

// TestIdlePlansPinNoSupersededSnapshot checks that once Apply and Compact
// have returned, nothing the DB keeps between queries — the plan cache,
// an idle PreparedQuery, the compiled plans' pooled workers — reaches the
// snapshot the queries ran on or the base it shared. It runs one plan of
// every shape whose workers read adjacency in place: a prepared WCO plan,
// fixed and adaptive, a hash join, a factorized tail, single-descriptor
// extensions, whose served sets alias neighbour runs, wildcard-label
// reads, whose readers keep run headers, and a Limit that stops a run
// with an operand pinned. Exactly one GC: a worker in
// sync.Pool's victim cache is still reachable after it.
func TestIdlePlansPinNoSupersededSnapshot(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(5))
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		for d := 0; d < 16; d++ {
			b.AddEdge(uint32(v), uint32(rng.Intn(n)), uint16(d%2))
		}
	}
	db, err := b.Open(&Options{CatalogueZ: 100, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Give the snapshot the queries read an overlay.
	if _, err := db.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	pq, err := db.PrepareWCO("a->b, b->c, c->d, d->a, b->d")
	if err != nil {
		t.Fatal(err)
	}
	for _, qo := range []*QueryOptions{nil, {Adaptive: true}} {
		if _, err := pq.Count(qo); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		pattern string
		qo      *QueryOptions
		ran     func(Stats) bool
	}{
		{"a->b, b->c, c->d, d->e, e->f, f->a", nil, func(s Stats) bool { return s.PlanKind == "bj" }},
		{"a->b, a->c, a->d", nil, func(s Stats) bool { return s.FactorizedPrefixes > 0 }},
		{"a->b, b->c, c->d", &QueryOptions{WCOOnly: true}, func(s Stats) bool { return s.PlanKind == "wco" }},
		{"a-[65535]->b, b-[65535]->c", nil, func(s Stats) bool { return s.Matches > 0 }},
		{"a->b, b->c, a->c", &QueryOptions{Limit: 5}, func(s Stats) bool { return s.Matches == 5 }},
	} {
		_, st, err := db.CountStats(c.pattern, c.qo)
		if err != nil {
			t.Fatal(err)
		}
		if !c.ran(st) {
			t.Fatalf("%s did not run the plan shape it stands for: %+v", c.pattern, st)
		}
	}
	snap, nbr := weakSnapshot(db)
	if _, err := db.AddEdge(0, 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if snap.Value() != nil {
		t.Error("the superseded overlay snapshot is still reachable")
	}
	if nbr.Value() != nil {
		t.Error("the pre-compaction base's neighbour array is still reachable")
	}
	runtime.KeepAlive(pq)
}

// weakSnapshot returns weak pointers to db's current snapshot and to an
// element of its base's neighbour array.
func weakSnapshot(db *DB) (weak.Pointer[live.Snapshot], weak.Pointer[graph.VertexID]) {
	s := db.store.Snapshot()
	for v := range s.Base().NumVertices() {
		if nbrs := s.Base().Neighbors(graph.VertexID(v), graph.Forward, 0, 0, nil); len(nbrs) > 0 {
			return weak.Make(s), weak.Make(&nbrs[0])
		}
	}
	panic("the base has no label-0 edge")
}

// TestConcurrentStatisticsRefresh hammers Apply, Compact, ad-hoc and
// prepared counts concurrently on a graph small enough that every few
// batches cross the refresh rule — the -race exercise for the statistics
// generation path. It asserts that background refreshes never overlap,
// that counts settle on the right answer, and that Close waits for a
// refresher still in flight.
func TestConcurrentStatisticsRefresh(t *testing.T) {
	const n = 40
	db := ringDB(t, n) // 80 edges: eight mutations are due a refresh
	pq, err := db.Prepare(triPattern)
	if err != nil {
		t.Fatal(err)
	}

	var inFlight, overlaps, refreshes atomic.Int32
	db.refreshHook = func() {
		if inFlight.Add(1) > 1 {
			overlaps.Add(1)
		}
		refreshes.Add(1)
		time.Sleep(time.Millisecond) // widen the window a second refresher would land in
		inFlight.Add(-1)
	}

	var wg sync.WaitGroup
	var served atomic.Int64 // the writer paces itself on reader progress
	stop := make(chan struct{})
	reader := func(count func() (int64, error)) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Four chords i->i+3, two triangles each, come and go as one
			// atomic batch.
			if got, err := count(); err != nil {
				t.Errorf("count: %v", err)
				return
			} else if got != n && got != n+8 {
				t.Errorf("count %d is no epoch's value", got)
				return
			}
			served.Add(1)
		}
	}
	wg.Add(3)
	go reader(func() (int64, error) { return db.Count(triPattern, nil) })
	go reader(func() (int64, error) { return pq.Count(nil) })
	go reader(func() (int64, error) { return db.Count("x->y, y->z, x->z", &QueryOptions{Workers: 2}) })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Compact(); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()

	var chords Batch
	for i := 0; i < 4; i++ {
		chords.AddEdges = append(chords.AddEdges, EdgeOp{Src: uint32(10 * i), Dst: uint32(10*i + 3), Label: 0})
	}
	for round := 0; round < 60; round++ {
		b := chords
		if round%2 == 1 {
			b = Batch{DeleteEdges: chords.AddEdges}
		}
		if _, err := db.Apply(b); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// Let a query plan against this epoch before the next batch, so
		// drift is observed as it builds up rather than once at the end.
		for next := served.Load() + 1; served.Load() < next && !t.Failed(); {
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()

	for _, count := range []func() (int64, error){
		func() (int64, error) { return db.Count(triPattern, nil) },
		func() (int64, error) { return pq.Count(nil) },
	} {
		if got, err := count(); err != nil || got != n {
			t.Fatalf("settled count = %d, %v; want %d", got, err, n)
		}
	}
	db.refreshWG.Wait() // the settled counts may have started one more
	if refreshes.Load() == 0 {
		t.Fatal("240 mutations on 80 edges never started a refresh")
	}
	if overlaps.Load() != 0 {
		t.Fatalf("%d background refreshes overlapped another", overlaps.Load())
	}
	if cs := db.CatalogueStats(); cs.Generation != uint64(refreshes.Load()) || cs.Builds != int64(refreshes.Load())+1 {
		t.Fatalf("%d refreshes ran but statistics report %+v", refreshes.Load(), cs)
	}

	// Close must not return while a refresher is in flight.
	entered, release := make(chan struct{}), make(chan struct{})
	db.refreshHook = func() { close(entered); <-release }
	if _, err := db.Apply(Batch{AddEdges: chords.AddEdges, AddVertices: make([]uint16, 8)}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Count(triPattern, nil); err != nil {
		t.Fatal(err)
	}
	<-entered
	closed := make(chan error, 1)
	go func() { closed <- db.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned with the statistics refresher still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	gen := db.CatalogueStats().Generation
	if gen != uint64(refreshes.Load())+1 {
		t.Fatalf("the held refresh did not publish before Close returned: generation %d", gen)
	}
	// A closed DB still answers from its snapshot but starts no refresher.
	db.mutations.Add(1000)
	if _, err := db.Count(pathPattern, nil); err != nil {
		t.Fatal(err)
	}
	db.refreshWG.Wait()
	if db.CatalogueStats().Generation != gen {
		t.Fatal("a refresher started after Close")
	}
}
