package graphflow

import (
	"strconv"
	"testing"
	"time"

	"graphflow/internal/exec"
	"graphflow/internal/graph"
)

// BenchmarkLimit measures what telling the executor a Limit costs or
// saves. Each op runs one prepared plan twice on one worker, in
// alternating order: once told the limit (RunCtx's limit argument, as
// Match passes it: the run's batches are sized for it and, when it is
// below the estimated matches, every stage hands its partial batch on
// after each input batch) and once not told it (limit 0, the batching of
// a run to the end), with emit stopping both at the limit. It reports
// each form's ns per run, their ratio and each form's batches (more
// batches told the limit: the run was pipelined). The cases are
// BenchmarkHotPatterns' five patterns on LiveJournal(1) under the
// server's default 10 000-row cap, and the adaptive router (WCO plans)
// on Q10 over Epinions(1) and Q2, the directed 4-cycle, over Amazon(1)
// under limits 10 000 and 100.
func BenchmarkLimit(b *testing.B) {
	opts := &Options{CatalogueH: 3, CatalogueZ: 1000, Seed: 1, MemGlobalBytes: 1 << 30}
	lj, err := NewFromDataset("LiveJournal", 1, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer lj.Close()
	for _, p := range []struct{ name, pattern string }{
		{"tri", "a->b, b->c, a->c"},
		{"diamondx", "a->b, a->c, b->c, b->d, c->d"},
		{"tri2leaf", "a->b, b->c, a->c, a->d, a->e"},
		{"clique4", "a->b, a->c, a->d, b->c, b->d, c->d"},
		{"bowtie", "a->b, b->c, a->c, a->d, d->e, a->e"},
	} {
		b.Run("match10000/"+p.name, func(b *testing.B) {
			benchLimit(b, lj, p.pattern, false, 10000)
		})
	}
	for _, d := range []struct{ dataset, name, pattern string }{
		{"Epinions", "q10", "a1->a2, a1->a3, a2->a4, a3->a4, a4->a5, a5->a6, a4->a6"},
		{"Amazon", "q2", "a1->a2, a2->a3, a3->a4, a4->a1"},
	} {
		db, err := NewFromDataset(d.dataset, 1, opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, limit := range []int64{10000, 100} {
			b.Run("adaptive/"+d.name+"/"+strconv.FormatInt(limit, 10), func(b *testing.B) {
				benchLimit(b, db, d.pattern, true, limit)
			})
		}
		db.Close()
	}
}

func benchLimit(b *testing.B, db *DB, pattern string, adaptive bool, limit int64) {
	prepare := db.Prepare
	if adaptive {
		prepare = db.PrepareWCO
	}
	pq, err := prepare(pattern)
	if err != nil {
		b.Fatal(err)
	}
	qo := QueryOptions{Workers: 1, Adaptive: adaptive}
	cp, err := pq.resolve()
	if err != nil {
		b.Fatal(err)
	}
	compiled := db.compiledFor(cp, &qo)
	ctx, cfg, done := db.runConfig(&qo)
	defer done()
	var (
		spent [2]time.Duration // [told, not told]
		rows  [2]int64
		prof  [2]exec.Profile
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range 2 {
			form := (i + k) % 2
			rows[form] = 0
			start := time.Now()
			p, err := compiled.RunCtx(ctx, cfg, [2]int64{limit, 0}[form], func([]graph.VertexID) bool {
				rows[form]++
				return rows[form] < limit
			})
			spent[form] += time.Since(start)
			if err != nil {
				b.Fatal(err)
			}
			prof[form] = p
		}
		if rows[0] != rows[1] {
			b.Fatalf("%d rows told the limit, %d not told", rows[0], rows[1])
		}
	}
	n := float64(b.N)
	b.ReportMetric(float64(rows[0]), "rows")
	b.ReportMetric(float64(spent[0].Nanoseconds())/n, "told-ns/op")
	b.ReportMetric(float64(spent[1].Nanoseconds())/n, "untold-ns/op")
	b.ReportMetric(float64(spent[0])/float64(spent[1]), "told/untold")
	b.ReportMetric(float64(prof[0].ICost), "told-icost")
	b.ReportMetric(float64(prof[1].ICost), "untold-icost")
	b.ReportMetric(float64(prof[0].Reroutes), "told-reroutes")
	for form, name := range [2]string{"told", "untold"} {
		c := prof[form].Batches
		b.ReportMetric(float64(c.Scan+c.Extend+c.Probe), name+"-batches")
	}
}
