package difftest

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"graphflow"
	"graphflow/internal/baseline"
	"graphflow/internal/graph"
	"graphflow/internal/query"
)

// componentShapes are the patterns whose plans end in a factorized tail
// of components of two or more vertices: three triangles sharing a (three
// identical components), a bowtie whose wings carry different labels
// (components that are not identical), and two 4-cycles sharing the edge
// a->b (a two-vertex separator).
var componentShapes = []struct{ name, pattern string }{
	{"windmill", "a->b, b->c, a->c, a->d, d->e, a->e, a->f, f->g, a->g"},
	{"bowtieLabelled", "a->b, b->c, a->c, a->d, d-[1]->e, a->e"},
	{"cycles", "a->b, b->c, c->d, d->a, b->e, e->f, f->a"},
}

// multiVertexComponent matches an EXPLAIN ANALYZE line of a tail
// component of two or more vertices.
var multiVertexComponent = regexp.MustCompile(`COMPONENT \{a\d+,`)

// compareComponents holds db's answers for q to the reference on ref
// (CompareFactorized: counts with the tier on and off, sequentially and on
// four workers, exact limits, the rows the unfold emits, Distinct) and to
// the CFL baseline's count, and reports whether db's plan for q counted a
// component of two or more vertices.
func compareComponents(db *graphflow.DB, ref graph.View, q *query.Graph) (reached bool, err error) {
	if err := CompareFactorized(db, ref, q); err != nil {
		return false, err
	}
	want, err := db.Count(q.String(), nil)
	if err != nil {
		return false, err
	}
	if cfl := baseline.CFLCountUpTo(ref, q, 0); cfl != want {
		return false, fmt.Errorf("count of %q = %d, CFL %d", q, want, cfl)
	}
	st, err := db.Analyze(q.String(), nil)
	if err != nil {
		return false, err
	}
	if st.Matches != want {
		return false, fmt.Errorf("analyzed count of %q = %d, want %d", q, st.Matches, want)
	}
	return multiVertexComponent.MatchString(st.Plan), nil
}

// TestDifferentialComponentTail runs the component shapes on dense
// graphs — statically, after a live mutation batch and after the
// compaction that folds it — against query.RefCount/RefEnumerate and
// CFL; each shape must reach the component tail on a static graph.
func TestDifferentialComponentTail(t *testing.T) {
	reached := map[string]bool{}
	// Labelled dense graphs, and one unlabelled, whose windmills already
	// number a million.
	for _, gc := range []struct {
		seed     int64
		labelled bool
	}{{51000, true}, {51001, true}, {51002, true}, {51001, false}} {
		g := GenDenseGraph(gc.seed, gc.labelled)
		db, err := OpenLiveDB(g, -1)
		if err != nil {
			t.Fatal(err)
		}
		sh := NewShadow(g)
		rng := rand.New(rand.NewSource(gc.seed))
		for step := range 3 {
			ref := g
			switch step {
			case 1:
				batch := GenBatch(rng, sh)
				if _, err := db.Apply(batch); err != nil {
					t.Fatal(err)
				}
				sh.Apply(batch)
				ref = sh.Build()
			case 2:
				if err := db.Compact(); err != nil {
					t.Fatal(err)
				}
				ref = sh.Build()
			}
			for _, s := range componentShapes {
				ok, err := compareComponents(db, ref, query.MustParse(s.pattern))
				if err != nil {
					t.Errorf("graph %+v step %d %s: %v", gc, step, s.name, err)
				}
				reached[s.name] = reached[s.name] || ok && step == 0
			}
		}
		db.Close()
	}
	for _, s := range componentShapes {
		if !reached[s.name] {
			t.Errorf("%s: no plan counted a component of two or more vertices", s.name)
		}
	}
}

// TestDifferentialComponentSplitHub counts the bowtie on four workers
// over a graph whose hub's scan adjacency is split into morsels: the
// hub's run of triangles arrives at the tail in parts that must be merged
// before the run's length is squared. The hub points at every other
// vertex, and 1 500 random edges among them close its triangles. The
// count, exact limits and the rows Match delivers are held to
// query.RefCount and CFL. The queries are WCOOnly: priced in i-cost, which
// charges the hub's pinned list to each of its rows, a hash join of two
// triangles scanned off the random edges looks cheaper, and would never
// scan the hub.
func TestDifferentialComponentSplitHub(t *testing.T) {
	const n = 4200 // the hub's degree is past the engine's split degree (4 096)
	rng := rand.New(rand.NewSource(52000))
	b := graph.NewBuilder(n)
	for i := graph.VertexID(1); i < n; i++ {
		b.AddEdge(0, i, 0)
	}
	for range 1500 {
		b.AddEdge(graph.VertexID(1+rng.Intn(n-1)), graph.VertexID(1+rng.Intn(n-1)), 0)
	}
	g := b.MustBuild()
	db, err := OpenDB(g)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const bowtie = "a->b, b->c, a->c, a->d, d->e, a->e"
	q := query.MustParse(bowtie)
	ref := query.RefCount(g, q)
	if cfl := baseline.CFLCountUpTo(g, q, 0); cfl != ref || ref < 1_000_000 {
		t.Fatalf("bowtie: query.RefCount %d, CFL %d; want them equal and the hub's triangles to matter", ref, cfl)
	}
	wco := graphflow.QueryOptions{WCOOnly: true, Workers: 4}
	if st, err := db.Analyze(bowtie, &wco); err != nil || !strings.Contains(st.Plan, "with prefix") {
		t.Fatalf("the WCO plan does not count the second wing off the hub's run (%v):\n%s", err, st.Plan)
	}
	for range 3 {
		got, err := db.Count(bowtie, &wco)
		if err != nil || got != ref {
			t.Fatalf("four-worker bowtie count %d, %v; reference %d", got, err, ref)
		}
	}
	for _, limit := range []int64{1, ref / 2, ref - 1, ref, ref + 1} {
		opts := wco
		opts.Limit = limit
		got, err := db.Count(bowtie, &opts)
		if err != nil || got != min(limit, ref) {
			t.Fatalf("four-worker bowtie count limit %d = %d, %v; want %d", limit, got, err, min(limit, ref))
		}
	}
	var rows atomic.Int64
	if err := db.Match(bowtie, func(map[string]uint32) bool { rows.Add(1); return true }, &wco); err != nil || rows.Load() != ref {
		t.Fatalf("four-worker bowtie match: %d rows, %v; want %d", rows.Load(), err, ref)
	}
}
