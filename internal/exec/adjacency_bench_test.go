package exec

import (
	"context"
	"testing"

	"graphflow/internal/datagen"
	"graphflow/internal/graph"
	"graphflow/internal/query"
)

// BenchmarkIntersectAdjacency computes N(a) ∩ N(b) for every edge a->b of
// a generated dataset, in scan order — the first E/I stage of every
// triangle-based plan — three ways. Two are the kernels alone, looked up
// and called by hand: "merge" is the sorted merge/gallop dispatch,
// "pinned" works a run at a time the way a stage does — N(a) pinned once
// for a's edges, each N(b) swept through the bitmap, and a row whose N(b)
// is past the cut-off galloped instead. "stage" is the same intersections
// through a compiled plan: scan, look-ahead, key compare, gather, i-cost,
// sweep, count — so stage minus pinned is what the engine costs outside
// the kernel, per pass. One op is one pass over the graph; ns/elem
// divides by the summed operand sizes (the pass's i-cost), the same for
// every column. graph's own BenchmarkIntersect* draw random-gap lists,
// where branch prediction and list-length mix are nothing like real
// adjacency — a branch-free merge measured 1.6× there and 0 % here — so
// kernel choices are made on this one.
//
// -benchtime 5x -cpu 1, best of 20 runs alternated with a build that
// still probed a per-partition hub bitset index past the cut-off and
// outside runs (its best in brackets), ms per pass (ns per element):
//
//	             merge               pinned             stage               pinned vs merge
//	LiveJournal  31.4 (4.6) [33.9]   9.99 (1.5) [9.43]  13.2 (1.9) [12.3]   3.1×
//	Epinions      4.91 (4.8) [5.27]  1.69 (1.7) [1.69]   2.41 (2.4) [2.30]  2.9×
//	BerkStan      3.57 (6.6) [3.86]  1.48 (2.7) [1.56]   2.40 (4.4) [2.40]  2.4×
//
// The hub index itself ("merge" with its probes) read 33.3 / 5.27 / 4.24
// at best: no faster than the merge and gallop alone. The stage costs
// 26 ns (LiveJournal), 28 ns (Epinions) and 24 ns (BerkStan) per
// intersection on top of the kernels. On the 2-vCPU machine these were
// taken on, a core runs at one of two speeds as its SMT sibling idles or
// works, so these minima sit above the 28.4 / 8.90 / 11.3 ms an earlier
// quieter round read on LiveJournal; compare columns within one round.
//
// The pinned and stage columns under other values of graph.PinCutoff (the
// partner-to-pinned length ratio past which the ordinary dispatch runs;
// best of 8):
//
//	                     4      8      16     32     64     none
//	LiveJournal pinned   12.2   10.0   9.29   8.89   9.09   8.93
//	LiveJournal stage    14.6   12.5   11.6   11.0   11.4   11.4
//	Epinions    stage     2.55   2.26   2.08   2.07   2.09   2.09
//	BerkStan    stage     2.17   2.17   2.17   2.17   2.17   2.16
//
// Flat from 16 up, so the cut-off stays on gallopThreshold (32): what it
// hands back is exactly what would have galloped. On these graphs nothing
// is lost without it either (1 610 of LiveJournal's 127 357 rows and 308
// of Epinions' 25 565 are past it; none of BerkStan's, whose skew is in
// the in-degrees) — their longest lists are a few hundred IDs, and the
// cut-off is there for the list of 10⁵ that a two-element operand would
// otherwise sweep.
//
// When a run is worth pinning for (exec's minRunRows; stage column, best
// of 8):
//
//	             rows ≥ 2   3      4      8
//	LiveJournal  11.1       11.2   11.6   15.0
//	Epinions      2.06       2.08   2.11   3.54
//	BerkStan      2.18       2.21   2.21   2.92
//
// Two rows are enough (the 4-clique, whose carried runs average 1.8 rows:
// 20.9 / 21.3 / 21.3 ms at 2 / 3 / 4). A second rule — pin only a list at
// most k times as long as its run — was swept too and is not taken: the
// stage column is the same at k = 4, 16, 64 and without the rule on all
// three graphs (LiveJournal 11.4 / 11.3 / 11.3 / 11.2), and worse at 1
// (14.2: the runs a batch end cut short are lost). A list and the run
// that shares it are as long as each other by construction (N(a) for a's
// edges, S for S's rows); no graph here has the hub list a batch end
// leaves two rows of, so nothing measured sits on either side of it.
// A branch-free sweep (store, then advance by the bit) measured 3–6 % for
// an output buffer as long as the swept list; not taken.
func BenchmarkIntersectAdjacency(b *testing.B) {
	tri := buildWCO(b, query.Q1(), chainOrder(3))
	for _, ds := range []struct {
		name string
		g    *graph.Graph
	}{
		{"LiveJournal", datagen.LiveJournal(1)},
		{"Epinions", datagen.Epinions(1)},
		{"BerkStan", datagen.BerkStan(1)},
	} {
		g := ds.g
		n := g.NumVertices()
		for _, policy := range []string{"merge", "pinned"} {
			b.Run(ds.name+"/"+policy, func(b *testing.B) {
				var it graph.Intersector
				it.Words = (n + 63) / 64
				var out, scratch []graph.VertexID
				lists := make([][]graph.VertexID, 2)
				var elems, matches int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					elems, matches = 0, 0
					for a := 0; a < n; a++ {
						na := g.Neighbors(graph.VertexID(a), graph.Forward, 0, 0, nil)
						pinned := policy == "pinned" && len(na) >= minRunRows
						if pinned {
							it.Pin(na)
						}
						for _, v := range na {
							nb := g.Neighbors(v, graph.Forward, 0, 0, nil)
							lists[0], lists[1] = na, nb
							elems += int64(len(na) + len(nb))
							swept := false
							if pinned {
								out, scratch, swept = it.ProbePinned(lists, 0, out, scratch)
							}
							if !swept {
								out, scratch = it.IntersectSeeded(nil, lists, out, scratch)
							}
							matches += int64(len(out))
						}
						it.Unpin()
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(elems), "ns/elem")
				b.ReportMetric(float64(matches), "matches")
				b.ReportMetric(float64(it.Counters.PinnedProbe)/float64(b.N), "pinned/op")
			})
		}
		// The same intersections as the first E/I stage of a compiled
		// triangle plan computes them: scan, look-ahead, gather, sweep,
		// count. What it takes beyond "pinned" is the stage's own cost.
		b.Run(ds.name+"/stage", func(b *testing.B) {
			cp := Must(b, g, tri)
			cfg := RunConfig{NoFactorize: true}
			var prof Profile
			var err error
			if _, _, err = cp.CountCtx(context.Background(), cfg); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, prof, err = cp.CountCtx(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(prof.ICost), "ns/elem")
			b.ReportMetric(float64(prof.Matches), "matches")
			b.ReportMetric(float64(prof.Kernels.PinnedProbe), "pinned/op")
		})
	}
}
