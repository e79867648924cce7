package exec

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"graphflow/internal/datagen"
	"graphflow/internal/plan"
	"graphflow/internal/query"
)

// twoPathJoin is a->b, b->c as a hash join of its two edge scans: the
// build side is the edge list itself, so its row count is the graph's.
func twoPathJoin(tb testing.TB) *plan.Plan {
	tb.Helper()
	q := query.MustParse("a->b, b->c")
	hj, err := plan.NewHashJoin(plan.NewScan(q, q.Edges[0]), plan.NewScan(q, q.Edges[1]))
	if err != nil {
		tb.Fatal(err)
	}
	return &plan.Plan{Query: q, Root: hj}
}

// TestHashJoinAllocsCeiling pins what a hash join allocates. On a fresh
// plan the table's storage is a fragment per half-again growth step of
// the arena plus the sealed rows and the directory, so a hundred times
// the build rows may add a few dozen allocations (log₁.₅ 100 ≈ 11 steps),
// never one per row or per batch; on a prepared plan run again, workers
// and table come back from the pools and only the per-run envelope is
// left.
func TestHashJoinAllocsCeiling(t *testing.T) {
	fresh := func(vertices int) (allocs uint64, buildRows int64) {
		cp := Must(t, smallRandomGraph(9, vertices, 2), twoPathJoin(t))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, prof, err := cp.CountCtx(context.Background(), RunConfig{})
		runtime.ReadMemStats(&after)
		if err != nil || n == 0 {
			t.Fatalf("count = %d, %v", n, err)
		}
		return after.Mallocs - before.Mallocs, prof.HashedTuples
	}
	small, smallRows := fresh(500)
	large, largeRows := fresh(50_000)
	t.Logf("fresh hash-join Count: %d allocations at %d build rows, %d at %d", small, smallRows, large, largeRows)
	if smallRows > 1_000 || largeRows < 90_000 {
		t.Fatalf("build sides of %d and %d rows; want about 1 k and 100 k", smallRows, largeRows)
	}
	if large > small+40 {
		t.Errorf("allocations grow with the build side beyond the arena's growth steps: %d at %d rows, %d at %d", small, smallRows, large, largeRows)
	}

	if raceEnabled {
		return
	}
	cp := Must(t, datagen.Epinions(1), twoTriangles(t))
	var cfg RunConfig
	if _, _, err := cp.CountCtx(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := cp.CountCtx(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}); allocs > 25 {
		t.Errorf("pooled re-run of a prepared hybrid plan allocates %.0f times, want <= 25", allocs)
	}
}

// BenchmarkHashJoinBuildProbe times the three phases of a hash join
// separately — the build pipeline producing rows into the arena, the
// seal, the driver pipeline probing and fanning matches out — for
// triangle ⋈ triangle on LiveJournal(1) with a one-vertex key (two
// triangles sharing a vertex) and a two-vertex key (sharing an edge), one
// worker, table and workers recycled as in a prepared re-run. ns/op is
// the whole join; the rows/s metrics divide each phase's rows by its own
// time.
//
// The join's own row costs, the constants optimizer.joinCost prices a
// hash join with, are the phases net of their E/I work: each side's plan
// is also counted on its own (its E/I stages, no rows written), which
// gives ns/icost, the exchange rate of one i-cost unit, and the rest of
// each phase divided by its rows gives build-ns/row (build + seal) and
// probe-ns/row (per probed tuple). Each divided by ns/icost is the row's
// cost in i-cost units: build-units and probe-units.
func BenchmarkHashJoinBuildProbe(b *testing.B) {
	g := datagen.LiveJournal(1)
	diamondX := query.MustParse("a->b, a->c, b->c, b->d, c->d")
	sharedEdge, err := plan.NewHashJoin(buildWCO(b, diamondX, []int{0, 1, 2}).Root, buildWCO(b, diamondX, []int{1, 2, 3}).Root)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		keyWidth int
		p        *plan.Plan
	}{
		{"key1", 1, twoTriangles(b)},
		{"key2", 2, &plan.Plan{Query: diamondX, Root: sharedEdge}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cp := Must(b, g, tc.p)
			build, driver := cp.pipes[0], cp.driver()
			if len(build.keySlots) != tc.keyWidth {
				b.Fatalf("join key of %d vertices, want %d", len(build.keySlots), tc.keyWidth)
			}
			batch := cp.EffectiveBatchSize(RunConfig{}, 0)
			ht := newHashTable(build.keySlots, build.outWidth)
			rc := &runContext{ctx: context.Background(), cp: cp, tables: map[*plan.HashJoin]*hashTable{build.feeds: ht}, batch: batch, buildBatch: batch}
			// Both sides are triangles built in ascending vertex order, so
			// each one's plan on its own is the same plan on the projection.
			hj := tc.p.Root.(*plan.HashJoin)
			var sides [2]*CompiledPlan
			for j, n := range []plan.Node{hj.Build, hj.Probe} {
				sub, _ := tc.p.Query.Project(plan.CoverMask(n))
				sides[j] = Must(b, g, buildWCO(b, sub, []int{0, 1, 2}))
			}
			var stopped atomic.Bool
			var buildNs, sealNs, probeNs time.Duration
			var buildRows, probeRows, probed int64
			var sideNs [2]time.Duration
			var sideICost [2]int64
			scanAll := func(rc *runContext, pipe *compiledPipeline, root bool) Profile {
				w := newWorker(rc, pipe, root, nil, &stopped, nil)
				w.runBatchRange(0, g.NumVertices())
				w.flushBatches()
				prof := w.profile
				w.release()
				return prof
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ht.reset()
				start := time.Now()
				scanAll(rc, build, false)
				built := time.Now()
				if !ht.seal(nil) {
					b.Fatal("seal refused")
				}
				sealed := time.Now()
				prof := scanAll(rc, driver, true)
				probeNs += time.Since(sealed)
				buildNs += built.Sub(start)
				sealNs += sealed.Sub(built)
				buildRows += int64(ht.len())
				probeRows += prof.Matches
				probed += prof.ProbedTuples
				b.StopTimer()
				for j, side := range sides {
					src := &runContext{ctx: context.Background(), cp: side, batch: batch, buildBatch: batch}
					start := time.Now()
					prof := scanAll(src, side.driver(), true)
					sideNs[j] += time.Since(start)
					sideICost[j] += prof.ICost
				}
				b.StartTimer()
			}
			if buildRows == 0 || probeRows == 0 {
				b.Fatalf("joined %d build rows into %d results", buildRows, probeRows)
			}
			b.ReportMetric(float64(buildRows)/buildNs.Seconds(), "build-rows/s")
			b.ReportMetric(float64(buildRows)/sealNs.Seconds(), "seal-rows/s")
			b.ReportMetric(float64(probeRows)/probeNs.Seconds(), "probe-rows/s")
			nsPerUnit := float64(sideNs[0]+sideNs[1]) / float64(sideICost[0]+sideICost[1])
			buildRowNs := float64(buildNs+sealNs-sideNs[0]) / float64(buildRows)
			probeRowNs := float64(probeNs-sideNs[1]) / float64(probed)
			b.ReportMetric(nsPerUnit, "ns/icost")
			b.ReportMetric(buildRowNs, "build-ns/row")
			b.ReportMetric(probeRowNs, "probe-ns/row")
			b.ReportMetric(buildRowNs/nsPerUnit, "build-units")
			b.ReportMetric(probeRowNs/nsPerUnit, "probe-units")
		})
	}
}
