package graphflow

import (
	"errors"
	"math/rand"
	"testing"

	"graphflow/internal/query"
)

// TestReferenceCount pins QueryOptions.BatchSize < 0: Count and
// CountStats, on DB and PreparedQuery alike, count with the reference
// evaluator over the current snapshot — the overlay's mutations included
// — without planning, and agree with the engine and with query.RefCount
// on the benchmark's five hot-pattern shapes, unlabelled and labelled;
// they honour Limit; Match, Analyze and a Distinct count refuse.
func TestReferenceCount(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	const n = 48
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetVertexLabel(uint32(v), uint16(rng.Intn(2)))
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < 0.3 {
				b.AddEdge(uint32(u), uint32(v), uint16(rng.Intn(2)))
			}
		}
	}
	db, err := b.Open(&Options{CatalogueZ: 100, CatalogueH: 2, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Two appended vertices wired into the graph, and a few deleted edges:
	// reads go through the overlay.
	var batch Batch
	batch.AddVertices = []uint16{0, 1}
	for v := uint32(n); v < n+2; v++ {
		for u := uint32(0); u < n; u += 2 {
			batch.AddEdges = append(batch.AddEdges, EdgeOp{Src: v, Dst: u}, EdgeOp{Src: u + 1, Dst: v, Label: 1})
		}
	}
	for u := uint32(0); u < 8; u++ {
		batch.DeleteEdges = append(batch.DeleteEdges, EdgeOp{Src: u, Dst: u + 1}, EdgeOp{Src: u + 1, Dst: u, Label: 1})
	}
	if _, err := db.Apply(batch); err != nil {
		t.Fatal(err)
	}
	if db.LiveStats().DeltaOps == 0 {
		t.Fatal("the overlay is empty; the test would not read through it")
	}
	snap := db.store.Snapshot()
	shapes := []struct{ name, plain, labelled string }{
		{"tri", "a->b, b->c, a->c", "a:1->b, b-[1]->c, a->c"},
		{"diamondx", "a->b, a->c, b->c, b->d, c->d", "a:1->b, a->c, b-[1]->c, b->d, c->d"},
		{"tri2leaf", "a->b, b->c, a->c, a->d, a->e", "a->b:1, b->c, a-[1]->c, a->d, a->e"},
		{"clique4", "a->b, a->c, a->d, b->c, b->d, c->d", "a->b, a->c, a->d:1, b->c, b-[1]->d, c->d"},
		{"bowtie", "a->b, b->c, a->c, a->d, d->e, a->e", "a->b, b-[1]->c, a->c:1, a->d, d->e, a->e"},
	}
	ref := &QueryOptions{BatchSize: -1}
	for _, sh := range shapes {
		for _, pattern := range []string{sh.plain, sh.labelled} {
			q, err := query.ParseAny(pattern)
			if err != nil {
				t.Fatal(err)
			}
			want := query.RefCount(snap, q)
			if want < 4 {
				t.Fatalf("%s %q: %d matches; the shape is vacuous here", sh.name, pattern, want)
			}
			if got, err := db.Count(pattern, nil); err != nil || got != want {
				t.Errorf("%s %q: engine count %d, %v; query.RefCount %d", sh.name, pattern, got, err, want)
			}
			planned := db.PlanCacheStats()
			got, err := db.Count(pattern, ref)
			if err != nil || got != want {
				t.Errorf("%s %q: reference Count %d, %v; want %d", sh.name, pattern, got, err, want)
			}
			got, st, err := db.CountStats(pattern, ref)
			if err != nil || got != want || st.Matches != want {
				t.Errorf("%s %q: reference CountStats %d (Stats.Matches %d), %v; want %d", sh.name, pattern, got, st.Matches, err, want)
			}
			if after := db.PlanCacheStats(); after.Hits != planned.Hits || after.Misses != planned.Misses {
				t.Errorf("%s %q: a reference count looked a plan up: %+v, then %+v", sh.name, pattern, planned, after)
			}
			pq, err := db.Prepare(pattern)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := pq.Count(ref); err != nil || got != want {
				t.Errorf("%s %q: prepared reference Count %d, %v; want %d", sh.name, pattern, got, err, want)
			}
			if got, st, err := pq.CountStats(ref); err != nil || got != want || st.Matches != want {
				t.Errorf("%s %q: prepared reference CountStats %d (Stats.Matches %d), %v; want %d", sh.name, pattern, got, st.Matches, err, want)
			}
			for _, limit := range []int64{1, want / 2, want, want + 5} {
				opts := &QueryOptions{BatchSize: -1, Limit: limit}
				wantLim := min(limit, want)
				if got, err := db.Count(pattern, opts); err != nil || got != wantLim {
					t.Errorf("%s %q limit %d: reference Count %d, %v; want %d", sh.name, pattern, limit, got, err, wantLim)
				}
				if got, err := pq.Count(opts); err != nil || got != wantLim {
					t.Errorf("%s %q limit %d: prepared reference Count %d, %v; want %d", sh.name, pattern, limit, got, err, wantLim)
				}
			}
			distinct := &QueryOptions{BatchSize: -1, Distinct: true}
			if _, err := db.Count(pattern, distinct); !errors.Is(err, errReferenceCountsOnly) {
				t.Errorf("%s: reference Distinct Count: err = %v", sh.name, err)
			}
			if _, _, err := pq.CountStats(distinct); !errors.Is(err, errReferenceCountsOnly) {
				t.Errorf("%s: prepared reference Distinct CountStats: err = %v", sh.name, err)
			}
			called := false
			match := func(map[string]uint32) bool { called = true; return true }
			if err := db.Match(pattern, match, ref); !errors.Is(err, errReferenceCountsOnly) || called {
				t.Errorf("%s: reference Match: err = %v, callback called: %v", sh.name, err, called)
			}
			if err := pq.Match(match, ref); !errors.Is(err, errReferenceCountsOnly) || called {
				t.Errorf("%s: prepared reference Match: err = %v, callback called: %v", sh.name, err, called)
			}
			if _, err := db.Analyze(pattern, ref); !errors.Is(err, errReferenceCountsOnly) {
				t.Errorf("%s: reference Analyze: err = %v", sh.name, err)
			}
		}
	}
}
