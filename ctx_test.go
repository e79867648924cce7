package graphflow

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// denseDB builds a DB over a dense random graph on which clique queries
// run long enough for mid-run cancellation to be observable.
func denseDB(t testing.TB) *DB {
	t.Helper()
	return denseDBDeg(t, 60)
}

// denseDBDeg is denseDB with deg random out-edges per vertex.
func denseDBDeg(t testing.TB, deg int) *DB {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	const n = 2000
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		for d := 0; d < deg; d++ {
			b.AddEdge(uint32(v), uint32(rng.Intn(n)), 0)
		}
	}
	db, err := b.Open(&Options{CatalogueZ: 100})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// wcoHeavy is a 4-clique: the optimizer evaluates it with multiway
// intersections, the workload the cancellation check must interrupt.
const wcoHeavy = "a->b, a->c, a->d, b->c, b->d, c->d"

// TestContextCancelsWCOQueryPromptly is the acceptance test for
// QueryOptions.Context: a Count on a WCO-heavy query must return
// context.DeadlineExceeded promptly when its context expires mid-run.
//
// The graph doubles its degree until the uncancelled count runs for at
// least 100ms, so a fast machine still sees the deadline expire mid-run.
func TestContextCancelsWCOQueryPromptly(t *testing.T) {
	var db *DB
	var n int64
	var fullDur time.Duration
	for deg := 60; ; deg *= 2 {
		db = denseDBDeg(t, deg)
		full := time.Now()
		var err error
		n, err = db.Count(wcoHeavy, &QueryOptions{WCOOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		fullDur = time.Since(full)
		if fullDur >= 100*time.Millisecond {
			break
		}
		if deg >= 480 {
			t.Skipf("full count of %d matches at degree %d took only %v; too fast to observe mid-run cancellation", n, deg, fullDur)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := db.Count(wcoHeavy, &QueryOptions{WCOOnly: true, Context: ctx})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > fullDur/2 && elapsed > 500*time.Millisecond {
		t.Errorf("cancellation latency %v (full run %v): not bounded", elapsed, fullDur)
	}
}

// TestCtxEntryPointsPropagateCancellation checks that every query entry
// point, on DB and PreparedQuery, honours QueryOptions.Context.
func TestCtxEntryPointsPropagateCancellation(t *testing.T) {
	db := denseDB(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	pq, err := db.Prepare(wcoHeavy)
	if err != nil {
		t.Fatal(err)
	}
	matchAll := func(map[string]uint32) bool { return true }
	entries := map[string]func(*QueryOptions) error{
		"DB.Count": func(o *QueryOptions) error {
			_, err := db.Count(wcoHeavy, o)
			return err
		},
		"DB.CountStats": func(o *QueryOptions) error {
			_, _, err := db.CountStats(wcoHeavy, o)
			return err
		},
		"DB.Match": func(o *QueryOptions) error { return db.Match(wcoHeavy, matchAll, o) },
		"DB.Analyze": func(o *QueryOptions) error {
			_, err := db.Analyze(wcoHeavy, o)
			return err
		},
		"PreparedQuery.Count": func(o *QueryOptions) error {
			_, err := pq.Count(o)
			return err
		},
		"PreparedQuery.CountStats": func(o *QueryOptions) error {
			_, _, err := pq.CountStats(o)
			return err
		},
		"PreparedQuery.Match": func(o *QueryOptions) error { return pq.Match(matchAll, o) },
	}
	for name, run := range entries {
		if err := run(&QueryOptions{Context: cancelled}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s err = %v, want context.Canceled", name, err)
		}
	}

	// Every execution mode must propagate the context, not just the
	// factorized-count default path.
	for _, opts := range []QueryOptions{
		{Distinct: true},
		{Adaptive: true},
		{Limit: 10},
		{Workers: 4},
	} {
		opts.Context = cancelled
		if _, err := db.Count(wcoHeavy, &opts); !errors.Is(err, context.Canceled) {
			t.Errorf("Count(%+v) err = %v, want context.Canceled", opts, err)
		}
	}

	// Without a Context a query runs unbounded; Analyze included.
	for _, opts := range []*QueryOptions{nil, {}} {
		st, err := db.Analyze("a->b, b->c, a->c", opts)
		if err != nil || st.Matches == 0 {
			t.Errorf("Analyze(%v) without a Context = %d matches, %v; want a full run", opts, st.Matches, err)
		}
	}
}

func TestQueryOptionsContextField(t *testing.T) {
	db := denseDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Count(wcoHeavy, &QueryOptions{Context: ctx}); !errors.Is(err, context.Canceled) {
		t.Errorf("Count with QueryOptions.Context err = %v, want context.Canceled", err)
	}
}

// TestParallelMatchHonorsLimit is the regression test for the old
// behaviour where any Limit silently forced sequential execution: a
// parallel Match with a row cap must deliver exactly Limit rows, each of
// which is a genuine match of the pattern.
func TestParallelMatchHonorsLimit(t *testing.T) {
	db, err := NewFromDataset("Epinions", 1, &Options{CatalogueZ: 200})
	if err != nil {
		t.Fatal(err)
	}
	const pattern = "a->b, b->c, a->c"

	// Reference: the full sequential result set.
	fullSet := map[string]bool{}
	err = db.Match(pattern, func(m map[string]uint32) bool {
		fullSet[fmt.Sprintf("%d-%d-%d", m["a"], m["b"], m["c"])] = true
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(len(fullSet))
	if total < 20 {
		t.Fatalf("fixture too small: %d triangles", total)
	}
	limit := total / 2

	for _, workers := range []int{1, 4} {
		var rows []string
		err := db.Match(pattern, func(m map[string]uint32) bool {
			rows = append(rows, fmt.Sprintf("%d-%d-%d", m["a"], m["b"], m["c"]))
			return true
		}, &QueryOptions{Workers: workers, Limit: limit})
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(rows)) != limit {
			t.Errorf("workers=%d: delivered %d rows, want %d", workers, len(rows), limit)
		}
		for _, r := range rows {
			if !fullSet[r] {
				t.Fatalf("workers=%d: row %s is not a match of the sequential reference", workers, r)
			}
		}
	}
}

// TestMatchSerialisesCallback holds Match to its contract with parallel
// workers on a result that spans several scan morsels: fn never runs
// concurrently, never again once it has returned false, and a Limit
// delivers exactly that many rows. The counters fn updates are
// deliberately unsynchronised, so -race also catches a broken guard.
func TestMatchSerialisesCallback(t *testing.T) {
	db, err := NewFromDataset("Epinions", 1, &Options{CatalogueZ: 200})
	if err != nil {
		t.Fatal(err)
	}
	const pattern = "a->b, b->c, a->c"
	total, err := db.Count(pattern, nil)
	if err != nil {
		t.Fatal(err)
	}
	if total < 1000 {
		t.Fatalf("fixture too small: %d triangles", total)
	}
	for _, tc := range []struct {
		name   string
		opts   QueryOptions
		stopAt int64 // fn returns false on this call (0 = never)
		want   int64 // calls of fn
	}{
		{"stop", QueryOptions{Workers: 4}, total / 3, total / 3},
		{"limit", QueryOptions{Workers: 4, Limit: total / 2}, 0, total / 2},
		{"distinct limit", QueryOptions{Workers: 4, Limit: 100, Distinct: true}, 0, 100},
	} {
		var inFlight atomic.Int32
		var calls, late int64
		stopped := false
		err := db.Match(pattern, func(map[string]uint32) bool {
			if inFlight.Add(1) > 1 {
				t.Errorf("%s: fn called concurrently", tc.name)
			}
			defer inFlight.Add(-1)
			runtime.Gosched()
			if stopped {
				late++
			}
			calls++
			stopped = calls == tc.stopAt
			return !stopped
		}, &tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if calls != tc.want || late != 0 {
			t.Errorf("%s: fn called %d times, %d after it returned false; want %d, 0", tc.name, calls, late, tc.want)
		}
	}
}

// TestParallelCountHonorsLimit checks the Count side of the same fix:
// Limit with Workers > 1 no longer downgrades to one worker, and the
// returned count still equals the cap exactly.
func TestParallelCountHonorsLimit(t *testing.T) {
	db, err := NewFromDataset("Epinions", 1, &Options{CatalogueZ: 200})
	if err != nil {
		t.Fatal(err)
	}
	const pattern = "a->b, b->c, a->c"
	seq, err := db.Count(pattern, &QueryOptions{Limit: 50})
	if err != nil {
		t.Fatal(err)
	}
	par, err := db.Count(pattern, &QueryOptions{Limit: 50, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 50 || par != 50 {
		t.Errorf("limited counts: sequential = %d, parallel = %d, want 50", seq, par)
	}
}

// TestLimitComposesWithDistinctAndAdaptive: Limit must stop enumeration
// in every counting mode, not just the default path.
func TestLimitComposesWithDistinctAndAdaptive(t *testing.T) {
	db, err := NewFromDataset("Epinions", 1, &Options{CatalogueZ: 200})
	if err != nil {
		t.Fatal(err)
	}
	const pattern = "a->b, b->c, a->c"
	for _, opts := range []*QueryOptions{
		{Distinct: true, Limit: 25},
		{Distinct: true, Limit: 25, Workers: 4},
		{Adaptive: true, Limit: 25},
	} {
		n, st, err := db.CountStats(pattern, opts)
		if err != nil {
			t.Fatalf("Count(%+v): %v", *opts, err)
		}
		if n != 25 {
			t.Errorf("Count(%+v) = %d, want the limit 25", *opts, n)
		}
		// The profile of the capped run must survive (the adaptive path
		// stops itself via context cancellation internally).
		if st.Intermediate == 0 {
			t.Errorf("Count(%+v) reported an empty profile", *opts)
		}
	}
	// Without a limit, or with one above the total, Distinct returns the
	// exact full count at any worker count.
	full, err := db.Count(pattern, &QueryOptions{Distinct: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		for _, limit := range []int64{0, full + 1000} {
			n, err := db.Count(pattern, &QueryOptions{Distinct: true, Limit: limit, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if n != full {
				t.Errorf("distinct workers=%d limit=%d = %d, want full count %d", workers, limit, n, full)
			}
		}
	}
}
