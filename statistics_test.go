package graphflow

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// staleBindings counts plan-cache entries still bound to a snapshot other
// than the current one — what the epoch hook exists to prevent.
func staleBindings(db *DB) int {
	cur := db.store.Snapshot()
	stale := 0
	db.plans.Range(func(_ string, cp *cachedPlan) {
		if pp := cp.bound.Load(); pp != nil && pp.snap != cur {
			stale++
		}
	})
	return stale
}

// TestEpochHookUnbindsSupersededSnapshots checks, step by step, that once
// Apply or Compact has returned nothing in the plan cache reaches the
// snapshot it superseded, while the entries themselves stay.
func TestEpochHookUnbindsSupersededSnapshots(t *testing.T) {
	db := ringDB(t, 60)
	for _, p := range []string{triPattern, pathPattern} {
		if _, err := db.Count(p, nil); err != nil {
			t.Fatal(err)
		}
	}
	steps := []struct {
		name string
		do   func() error
	}{
		{"apply", func() error { _, err := db.AddEdge(0, 3, 0); return err }},
		{"compact", db.Compact},
		{"delete", func() error { _, err := db.DeleteEdge(0, 3, 0); return err }},
	}
	for _, step := range steps {
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if n := staleBindings(db); n != 0 {
			t.Fatalf("after %s: %d cached plans still pin a superseded snapshot", step.name, n)
		}
		if st := db.PlanCacheStats(); st.Entries != 2 || st.Evictions != 0 {
			t.Fatalf("after %s: the hook must drop bindings, not entries: %+v", step.name, st)
		}
		// Re-bind one of the two, so the next step sweeps a mix of bound and
		// unbound entries.
		if _, err := db.Count(triPattern, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentStatisticsRefresh hammers Apply, Compact, ad-hoc and
// prepared counts concurrently on a graph small enough that every few
// batches cross the refresh rule — the -race exercise for the statistics
// generation path. It asserts that background refreshes never overlap,
// that at quiescence no cached plan reaches a superseded snapshot, that
// counts settle on the right answer, and that Close waits for a refresher
// still in flight.
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
	if stale := staleBindings(db); stale != 0 {
		t.Fatalf("%d cached plans pin a superseded snapshot at quiescence", stale)
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
