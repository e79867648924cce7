package graphflow

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"graphflow/internal/query"
)

func TestPreparedCountMatchesAdhoc(t *testing.T) {
	db := tinyDB(t)
	pq, err := db.Prepare("a->b, b->c, a->c")
	if err != nil {
		t.Fatal(err)
	}
	n, err := pq.Count(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("prepared count = %d, want 1", n)
	}
	// Stats without running.
	st := pq.Stats()
	if st.PlanKind == "" || st.Plan == "" {
		t.Errorf("Stats() incomplete: %+v", st)
	}
	// Options still apply per run.
	if n, err = pq.Count(&QueryOptions{Workers: 4}); err != nil || n != 1 {
		t.Errorf("parallel prepared count = %d/%v, want 1", n, err)
	}
	if n, err = pq.Count(&QueryOptions{Distinct: true}); err != nil || n != 1 {
		t.Errorf("distinct prepared count = %d/%v, want 1", n, err)
	}
	if n, err = pq.Count(&QueryOptions{Limit: 1}); err != nil || n != 1 {
		t.Errorf("limited prepared count = %d/%v, want 1", n, err)
	}
}

func TestPreparedMatchNames(t *testing.T) {
	db := tinyDB(t)
	pq, err := db.Prepare("x->y, y->z, x->z")
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]uint32
	err = pq.Match(func(m map[string]uint32) bool {
		got = map[string]uint32{}
		for k, v := range m {
			got[k] = v
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The triangle is 0->1->2 with 0->2: x=0, y=1, z=2 regardless of the
	// canonical renumbering used internally.
	want := map[string]uint32{"x": 0, "y": 1, "z": 2}
	if len(got) != 3 {
		t.Fatalf("match binds %d names, want 3: %v", len(got), got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %d, want %d (full: %v)", k, got[k], v, got)
		}
	}
}

func TestMatchEarlyTermination(t *testing.T) {
	// Graph with many triangles: a fan around vertex 0.
	b := NewBuilder(42)
	for i := uint32(1); i < 41; i += 2 {
		b.AddEdge(0, i, 0)
		b.AddEdge(i, i+1, 0)
		b.AddEdge(0, i+1, 0)
	}
	db, err := b.Open(&Options{CatalogueZ: 50})
	if err != nil {
		t.Fatal(err)
	}
	total, err := db.Count("a->b, b->c, a->c", nil)
	if err != nil {
		t.Fatal(err)
	}
	if total < 10 {
		t.Fatalf("fan graph has only %d triangles", total)
	}
	calls := 0
	err = db.Match("a->b, b->c, a->c", func(map[string]uint32) bool {
		calls++
		return calls < 3
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("callback invoked %d times, want exactly 3 (stop must halt the runner)", calls)
	}
}

func TestMatchHonorsDistinctAndLimit(t *testing.T) {
	db := tinyDB(t)
	pq, err := db.Prepare("a->b, b->c")
	if err != nil {
		t.Fatal(err)
	}
	countMatches := func(opts *QueryOptions) int64 {
		var n int64
		if err := pq.Match(func(map[string]uint32) bool { n++; return true }, opts); err != nil {
			t.Fatal(err)
		}
		return n
	}
	plain, err := pq.Count(nil)
	if err != nil {
		t.Fatal(err)
	}
	distinct, err := pq.Count(&QueryOptions{Distinct: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := countMatches(nil); got != plain {
		t.Errorf("Match delivered %d tuples, Count says %d", got, plain)
	}
	if got := countMatches(&QueryOptions{Distinct: true}); got != distinct {
		t.Errorf("distinct Match delivered %d tuples, Count says %d", got, distinct)
	}
	if plain < 2 {
		t.Fatalf("need >=2 matches to exercise Limit, have %d", plain)
	}
	if got := countMatches(&QueryOptions{Limit: plain - 1}); got != plain-1 {
		t.Errorf("limited Match delivered %d tuples, want %d", got, plain-1)
	}
}

func TestDistinctParallelNoRace(t *testing.T) {
	// Distinct counting across workers must agree with sequential; run
	// under -race this also proves the counter is synchronised.
	db := tinyDB(t)
	seq, err := db.Count("a->b, b->c", &QueryOptions{Distinct: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := db.Count("a->b, b->c", &QueryOptions{Distinct: true, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if seq != par {
		t.Errorf("distinct count: sequential %d != parallel %d", seq, par)
	}
}

func TestPlanCacheHitsOnRepeatAndIsomorphicSpelling(t *testing.T) {
	db := tinyDB(t)
	if _, err := db.Count("a->b, b->c, a->c", nil); err != nil {
		t.Fatal(err)
	}
	before := db.PlanCacheStats()
	if before.Entries == 0 || before.Misses == 0 {
		t.Fatalf("first query should miss and fill the cache: %+v", before)
	}
	if _, err := db.Count("a->b, b->c, a->c", nil); err != nil {
		t.Fatal(err)
	}
	// Isomorphic spelling with different names and edge order.
	if _, err := db.Count("y->z, x->y, x->z", nil); err != nil {
		t.Fatal(err)
	}
	after := db.PlanCacheStats()
	if after.Hits < before.Hits+2 {
		t.Errorf("repeat + isomorphic spelling should both hit: before %+v after %+v", before, after)
	}
	if after.Entries != before.Entries {
		t.Errorf("isomorphic spelling added a cache entry: before %+v after %+v", before, after)
	}
	// A WCO-restricted run plans in a different space and must not
	// collide with the cached full-space plan.
	if _, err := db.Count("a->b, b->c, a->c", &QueryOptions{WCOOnly: true}); err != nil {
		t.Fatal(err)
	}
	wco := db.PlanCacheStats()
	if wco.Entries != after.Entries+1 {
		t.Errorf("WCOOnly should occupy its own cache entry: %+v -> %+v", after, wco)
	}
}

// TestCanonicalFormBounded pins the kernel's enumeration bound: a
// 30-vertex directed cycle (one invariant class, 30! orderings) and a
// 30-vertex out-star (29! orderings of the leaves) canonicalise at once,
// the cycle's code still tells it from the 30-vertex path, and Prepare
// of the cycle returns.
func TestCanonicalFormBounded(t *testing.T) {
	const n = query.MaxVertices
	var cycle, path, star []string
	for i := 0; i < n; i++ {
		edge := fmt.Sprintf("v%d->v%d", i, (i+1)%n)
		cycle = append(cycle, edge)
		if i < n-1 {
			path = append(path, edge)
			star = append(star, fmt.Sprintf("hub->s%d", i))
		}
	}
	codes := map[string]query.Code{}
	for name, edges := range map[string][]string{"cycle": cycle, "path": path, "star": star} {
		q := query.MustParse(strings.Join(edges, ", "))
		start := time.Now()
		codes[name] = query.Code(q.AppendCanonicalCode(nil, query.AllMask(n), query.NoTarget, nil))
		if took := time.Since(start); took > 50*time.Millisecond {
			t.Errorf("canonical code of the %d-vertex %s took %v", n, name, took)
		}
	}
	if codes["cycle"] == codes["path"] {
		t.Errorf("the %d-cycle and the %d-path share code %s", n, n, codes["cycle"])
	}
	if _, err := tinyDB(t).Prepare(strings.Join(cycle, ", ")); err != nil {
		t.Fatalf("Prepare of the %d-cycle: %v", n, err)
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 1, 0)
	b.AddEdge(1, 2, 0)
	b.AddEdge(0, 2, 0)
	db, err := b.Open(&Options{CatalogueZ: 50, PlanCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Count("a->b, b->c, a->c", nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.PlanCacheStats(); st.Hits != 0 || st.Entries != 0 {
		t.Errorf("disabled cache recorded activity: %+v", st)
	}
}

func TestSkipPlanCache(t *testing.T) {
	db := tinyDB(t)
	for i := 0; i < 2; i++ {
		if _, err := db.Count("a->b, b->c, a->c", &QueryOptions{SkipPlanCache: true}); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.PlanCacheStats(); st.Hits != 0 {
		t.Errorf("SkipPlanCache still hit the cache: %+v", st)
	}
}

// TestConcurrentQueriesSharedDB is the headline concurrency test: many
// goroutines issue overlapping prepared and ad-hoc queries against one
// shared DB. Run with -race in CI.
func TestConcurrentQueriesSharedDB(t *testing.T) {
	db := tinyDB(t)
	patterns := []string{
		"a->b, b->c, a->c",
		"x->y, y->z, x->z", // isomorphic spelling, shares the cached plan
		"a->b, b->c",
		"a->b, b->c, c->d",
	}
	want := make([]int64, len(patterns))
	for i, p := range patterns {
		n, err := db.Count(p, &QueryOptions{SkipPlanCache: true})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = n
	}
	pq, err := db.Prepare(patterns[0])
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 256)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				pi := (g + i) % len(patterns)
				var n int64
				var err error
				switch i % 3 {
				case 0: // shared prepared query
					n, err = pq.Count(&QueryOptions{Workers: 1 + i%2})
					pi = 0
				case 1: // ad-hoc through the plan cache
					n, err = db.Count(patterns[pi], nil)
				case 2: // goroutine-local prepared query
					var local *PreparedQuery
					local, err = db.Prepare(patterns[pi])
					if err == nil {
						n, err = local.Count(nil)
					}
				}
				if err != nil {
					errCh <- err
					return
				}
				if n != want[pi] {
					errCh <- errMismatch(patterns[pi], n, want[pi])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

type countMismatch struct {
	pattern    string
	got, wantN int64
}

func (e countMismatch) Error() string {
	return "count mismatch for " + e.pattern
}

func errMismatch(p string, got, want int64) error {
	return countMismatch{pattern: p, got: got, wantN: want}
}
