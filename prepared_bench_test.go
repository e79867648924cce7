package graphflow

import "testing"

// benchDB builds a small deterministic sparse graph: execution of the
// benchmark pattern costs microseconds, so the spread between the
// uncached / cached / prepared variants is the planning overhead that
// the plan cache amortizes away (the short-running-query regime that
// motivates prepared queries).
func benchDB(b *testing.B) *DB {
	return benchDBOpts(b, &Options{CatalogueZ: 100})
}

func benchDBOpts(b *testing.B, opts *Options) *DB {
	b.Helper()
	const n = 300
	bd := NewBuilder(n)
	for i := uint32(0); i < n; i++ {
		for _, d := range []uint32{i*7 + 1, i*13 + 2, i*29 + 3} {
			if dst := d % n; dst != i {
				bd.AddEdge(i, dst, 0)
			}
		}
	}
	db, err := bd.Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// A 6-vertex pattern: large enough that the optimizer's plan-spectrum
// enumeration is the dominant cost on the small benchmark graph.
const benchPattern = "a->b, b->c, c->d, d->e, e->f, a->f, a->c, b->d"

// BenchmarkCountUncached forces a full parse/canonicalize/optimize/compile
// on every call — the pre-plan-cache behaviour.
func BenchmarkCountUncached(b *testing.B) {
	db := benchDB(b)
	qo := &QueryOptions{SkipPlanCache: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Count(benchPattern, qo); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCountCached goes through the DB's plan cache: after the first
// call every iteration pays parse+canonicalize+execute but no
// optimization or compilation.
func BenchmarkCountCached(b *testing.B) {
	db := benchDB(b)
	if _, err := db.Count(benchPattern, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Count(benchPattern, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCountPrepared reuses a PreparedQuery: iterations pay execution
// only — the compile-once/run-many steady state.
func BenchmarkCountPrepared(b *testing.B) {
	db := benchDB(b)
	pq, err := db.Prepare(benchPattern)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pq.Count(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanningOnly isolates what the cache saves: Explain performs
// parse+canonicalize+optimize+compile but never executes, and with the
// plan cache disabled it re-plans on every call.
func BenchmarkPlanningOnly(b *testing.B) {
	db := benchDBOpts(b, &Options{CatalogueZ: 100, PlanCacheSize: -1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Explain(benchPattern); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreparedParallel exercises one shared PreparedQuery from
// parallel goroutines — the server-shaped workload.
func BenchmarkPreparedParallel(b *testing.B) {
	db := benchDB(b)
	pq, err := db.Prepare(benchPattern)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := pq.Count(nil); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkHotPatterns runs the benchmark's five hot-count patterns
// (benchmark/workload.go) the way it runs them — prepared, Workers: 1,
// the benchmark's store options, on LiveJournal(1) — one sub-benchmark
// each, so README's five-pattern table is
//
//	go test -run '^$' -bench HotPatterns -benchtime 20x -cpu 1 -count 6 .
//
// (compare minima: the sandbox has two speed states). count and icost are
// reported beside the time because a change to the engine must not move
// them.
func BenchmarkHotPatterns(b *testing.B) {
	db, err := NewFromDataset("LiveJournal", 1, &Options{CatalogueH: 3, CatalogueZ: 1000, Seed: 1, MemGlobalBytes: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	qo := &QueryOptions{Workers: 1}
	for _, p := range []struct{ name, pattern string }{
		{"tri", "a->b, b->c, a->c"},
		{"diamondx", "a->b, a->c, b->c, b->d, c->d"},
		{"tri2leaf", "a->b, b->c, a->c, a->d, a->e"},
		{"clique4", "a->b, a->c, a->d, b->c, b->d, c->d"},
		{"bowtie", "a->b, b->c, a->c, a->d, d->e, a->e"},
	} {
		b.Run(p.name, func(b *testing.B) {
			pq, err := db.Prepare(p.pattern)
			if err != nil {
				b.Fatal(err)
			}
			var st Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, st, err = pq.CountStats(qo); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.Matches), "count")
			b.ReportMetric(float64(st.ICost), "icost")
		})
	}
}
