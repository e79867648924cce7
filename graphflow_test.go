package graphflow

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"graphflow/internal/exec"
	"graphflow/internal/query"
	"graphflow/internal/resource"
)

// cacheOff and noFactorize are the engine ablations the tests run beside
// the default (Table 3's "Cache Off", the factorized tier turned off);
// under attaches one to a query's context (exec.WithRunConfig).
func cacheOff(c *exec.RunConfig)    { c.DisableCache = true }
func noFactorize(c *exec.RunConfig) { c.NoFactorize = true }

// under returns a copy of qo whose context carries the run-config hook fn.
func under(qo QueryOptions, fn func(*exec.RunConfig)) *QueryOptions {
	qo.Context = exec.WithRunConfig(cmp.Or(qo.Context, context.Background()), fn)
	return &qo
}

// tinyDB builds a 5-vertex graph with one triangle and a tail.
func tinyDB(t *testing.T) *DB {
	t.Helper()
	b := NewBuilder(5)
	b.AddEdge(0, 1, 0)
	b.AddEdge(1, 2, 0)
	b.AddEdge(0, 2, 0)
	b.AddEdge(2, 3, 0)
	b.AddEdge(3, 4, 0)
	db, err := b.Open(&Options{CatalogueZ: 50})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCountTriangle(t *testing.T) {
	db := tinyDB(t)
	n, err := db.Count("a->b, b->c, a->c", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("triangles = %d, want 1", n)
	}
}

func TestCountStats(t *testing.T) {
	db := tinyDB(t)
	n, st, err := db.CountStats("a->b, b->c, a->c", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || st.Matches != 1 {
		t.Errorf("matches = %d/%d", n, st.Matches)
	}
	if st.PlanKind != "wco" {
		t.Errorf("triangle plan kind = %q", st.PlanKind)
	}
	if !strings.Contains(st.Plan, "SCAN") {
		t.Errorf("plan description missing SCAN:\n%s", st.Plan)
	}
}

func TestMatchNames(t *testing.T) {
	db := tinyDB(t)
	var got []map[string]uint32
	err := db.Match("x->y, y->z, x->z", func(m map[string]uint32) bool {
		cp := map[string]uint32{}
		for k, v := range m {
			cp[k] = v
		}
		got = append(got, cp)
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("matches = %d, want 1", len(got))
	}
	m := got[0]
	if m["x"] != 0 || m["y"] != 1 || m["z"] != 2 {
		t.Errorf("assignment = %v", m)
	}
}

func TestMatchEarlyStop(t *testing.T) {
	db := tinyDB(t)
	calls := 0
	err := db.Match("a->b", func(map[string]uint32) bool {
		calls++
		return false
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("early stop made %d calls", calls)
	}
}

func TestExplain(t *testing.T) {
	db := tinyDB(t)
	st, err := db.Explain("a->b, b->c, c->d")
	if err != nil {
		t.Fatal(err)
	}
	if st.Plan == "" || st.PlanKind == "" {
		t.Errorf("explain = %+v", st)
	}
}

func TestEstimateCardinality(t *testing.T) {
	db := tinyDB(t)
	est, err := db.EstimateCardinality("a->b")
	if err != nil {
		t.Fatal(err)
	}
	if est != 5 {
		t.Errorf("edge estimate = %v, want 5", est)
	}
}

// TestEstimateIsThePlans holds DB.EstimateCardinality to the estimate the
// prepared plan was priced on: for three spellings of each of Q1–Q14
// (vertices renamed, edges shuffled) it equals, bit for bit, the prepared
// plan's EstimatedCardinality.
func TestEstimateIsThePlans(t *testing.T) {
	db, err := NewFromDataset("Epinions", 1, &Options{CatalogueZ: 200})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for j := 1; j <= 14; j++ {
		for range 3 {
			q := query.Benchmark(j).Clone()
			names := rng.Perm(len(q.Vertices))
			for i := range q.Vertices {
				q.Vertices[i].Name = fmt.Sprintf("v%d", names[i])
			}
			rng.Shuffle(len(q.Edges), func(i, j int) { q.Edges[i], q.Edges[j] = q.Edges[j], q.Edges[i] })
			pattern := q.String()
			pq, err := db.Prepare(pattern)
			if err != nil {
				t.Fatalf("Q%d %s: %v", j, pattern, err)
			}
			est, err := db.EstimateCardinality(pattern)
			if err != nil {
				t.Fatalf("Q%d %s: %v", j, pattern, err)
			}
			if want := pq.EstimatedCardinality(); math.Float64bits(est) != math.Float64bits(want) {
				t.Errorf("Q%d %s: EstimateCardinality %v, the prepared plan's %v", j, pattern, est, want)
			}
		}
	}
}

func TestQueryOptionVariants(t *testing.T) {
	db, err := NewFromDataset("Epinions", 1, &Options{CatalogueZ: 200})
	if err != nil {
		t.Fatal(err)
	}
	pattern := "a->b, b->c, a->c, b->d, c->d" // diamond-X
	base, err := db.Count(pattern, nil)
	if err != nil {
		t.Fatal(err)
	}
	variants := []*QueryOptions{
		{Workers: 4},
		{Adaptive: true},
		{WCOOnly: true},
		under(QueryOptions{}, cacheOff),
	}
	for i, qo := range variants {
		n, err := db.Count(pattern, qo)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if n != base {
			t.Errorf("variant %d: count = %d, want %d", i, n, base)
		}
	}
	capped, err := db.Count(pattern, &QueryOptions{Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if capped != 3 {
		t.Errorf("limit count = %d, want 3", capped)
	}
}

func TestNewFromEdgeList(t *testing.T) {
	in := strings.NewReader("0 1\n1 2\n0 2\n")
	db, err := NewFromEdgeList(in, &Options{CatalogueZ: 10})
	if err != nil {
		t.Fatal(err)
	}
	if db.NumVertices() != 3 || db.NumEdges() != 3 {
		t.Errorf("loaded %d/%d", db.NumVertices(), db.NumEdges())
	}
}

func TestUnknownDataset(t *testing.T) {
	if _, err := NewFromDataset("nope", 1, nil); err == nil {
		t.Error("unknown dataset should error")
	}
}

func TestGraphStats(t *testing.T) {
	db := tinyDB(t)
	st := db.GraphStats()
	if st.Vertices != 5 || st.Edges != 5 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAnalyze(t *testing.T) {
	db := tinyDB(t)
	st, err := db.Analyze("a->b, b->c, a->c", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Matches != 1 {
		t.Errorf("analyze matches = %d, want 1", st.Matches)
	}
	if !strings.Contains(st.Plan, "out=") || !strings.Contains(st.Plan, "SCAN") {
		t.Errorf("analyze plan missing counters:\n%s", st.Plan)
	}
}

func TestDistinctSemantics(t *testing.T) {
	// A 2-cycle graph: the 4-cycle query has 2 homomorphisms that fold onto
	// the two vertices, but no injective (isomorphism) matches.
	b := NewBuilder(2)
	b.AddEdge(0, 1, 0)
	b.AddEdge(1, 0, 0)
	db, err := b.Open(&Options{CatalogueZ: 10})
	if err != nil {
		t.Fatal(err)
	}
	pattern := "a->b, b->c, c->d, d->a"
	hom, err := db.Count(pattern, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hom != 2 {
		t.Errorf("homomorphism count = %d, want 2", hom)
	}
	iso, err := db.Count(pattern, &QueryOptions{Distinct: true})
	if err != nil {
		t.Fatal(err)
	}
	if iso != 0 {
		t.Errorf("distinct count = %d, want 0", iso)
	}
}

func TestCypherQuery(t *testing.T) {
	db := tinyDB(t)
	n, err := db.Count("MATCH (a)-->(b), (b)-->(c), (a)-->(c) RETURN count(*)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("cypher triangle count = %d, want 1", n)
	}
}

func TestBadPattern(t *testing.T) {
	db := tinyDB(t)
	if _, err := db.Count("a->a", nil); err == nil {
		t.Error("self loop should error")
	}
	if _, err := db.Count("", nil); err == nil {
		t.Error("empty pattern should error")
	}
}

// TestCarriedSetsStats checks the public face of the carried extension
// sets on a 4-clique: Stats.CarriedSets counts the seeded intersections,
// Explain marks the inheriting operator, the count is the reference
// counter's, and the cache turned off turns the carrying off — and the
// i-cost up — without changing the count.
func TestCarriedSetsStats(t *testing.T) {
	db, err := NewFromDataset("Epinions", 1, &Options{CatalogueZ: 200})
	if err != nil {
		t.Fatal(err)
	}
	const clique4 = "a->b, a->c, b->c, a->d, b->d, c->d"
	n, st, err := db.CountStats(clique4, &QueryOptions{WCOOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || st.CarriedSets == 0 {
		t.Fatalf("count %d, carried sets %d: want both > 0\n%s", n, st.CarriedSets, st.Plan)
	}
	if !strings.Contains(st.Plan, "<- ↑∩") {
		t.Errorf("plan does not mark the inheriting operator:\n%s", st.Plan)
	}
	if ref, err := db.Count(clique4, &QueryOptions{BatchSize: -1}); err != nil || ref != n {
		t.Errorf("reference count %d, %v; engine %d", ref, err, n)
	}
	m, off, err := db.CountStats(clique4, under(QueryOptions{WCOOnly: true}, cacheOff))
	if err != nil {
		t.Fatal(err)
	}
	if m != n || off.CarriedSets != 0 || off.ICost <= st.ICost {
		t.Errorf("cache off: count %d carried %d i-cost %d; want count %d, no carried sets, i-cost above %d",
			m, off.CarriedSets, off.ICost, n, st.ICost)
	}
}

// TestAnalyzeHonoursMemoryBudget holds Analyze to the memory ceilings
// Count runs under: the DB-wide default, the query's own MemBudgetBytes
// and the global pool each abort it with the budget error, and every
// reservation is back in the pool afterwards.
func TestAnalyzeHonoursMemoryBudget(t *testing.T) {
	const tri = "a->b, b->c, a->c"
	for _, tc := range []struct {
		name string
		opts Options
		qo   *QueryOptions
	}{
		{"DB default", Options{MemBudgetBytes: 512}, nil},
		{"query ceiling", Options{}, &QueryOptions{MemBudgetBytes: 512}},
		{"global pool", Options{MemGlobalBytes: 512}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.CatalogueZ = 50
			db, err := NewFromDataset("Epinions", 1, &tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if _, err := db.Count(tri, tc.qo); !errors.Is(err, resource.ErrBudgetExceeded) {
				t.Fatalf("Count: err = %v, want the budget error", err)
			}
			st, err := db.Analyze(tri, tc.qo)
			if !errors.Is(err, resource.ErrBudgetExceeded) {
				t.Fatalf("Analyze: err = %v (%d matches), want the budget error", err, st.Matches)
			}
			if gov := db.Governor(); gov.Limit() > 0 && gov.InUse() != 0 {
				t.Errorf("%d bytes still reserved from the global pool", gov.InUse())
			}
		})
	}
}
