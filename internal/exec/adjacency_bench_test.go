package exec

import (
	"testing"

	"graphflow/internal/datagen"
	"graphflow/internal/graph"
)

// BenchmarkIntersectAdjacency computes N(a) ∩ N(b) for every edge a->b of
// a generated dataset, in scan order — the first E/I stage of every
// triangle-based plan — under three policies: "merge" is the sorted
// merge/gallop dispatch alone, "hubs" adds the hub bitset indexes the way
// an E/I stage fetches them, "pinned" is what the stage runs: hub indexes
// plus IntersectRun told that N(a) repeats from a's second edge on. One op
// is one pass over the graph; ns/elem divides by the summed operand sizes
// (the pass's i-cost), the same for every policy. graph's own
// BenchmarkIntersect* draw random-gap lists, where branch prediction and
// list-length mix are nothing like real adjacency — a branch-free merge
// measured 1.6× there and 0 % here — so kernel choices are made on this
// one.
//
// -benchtime 20x -cpu 1, best of 6, ms per pass (ns per element):
//
//	             merge        hubs    pinned       pinned vs merge
//	LiveJournal  28.9 (4.2)   28.8    12.5 (1.8)   2.3×
//	Epinions      4.64 (4.6)   4.71    2.31 (2.3)  2.0×
//	BerkStan      3.61 (6.6)   3.83    2.14 (3.9)  1.7×
//
// and the pinned column under other values of graph's pinCutoff (the
// partner-to-pinned length ratio past which the ordinary dispatch runs):
//
//	             4      8      16     32     64     none
//	LiveJournal  15.5   13.4   12.5   12.5   12.4   12.9
//	Epinions      2.94   2.44   2.31   2.32   2.31   3.36
//	BerkStan      2.36   2.21   2.12   2.14   2.14   3.25
//
// Flat from 16 to 64, so the cut-off sits on gallopThreshold (32): what
// it hands back is exactly what would have galloped. Without it the two
// skewed graphs lose a third. A branch-free sweep (store, then advance
// by the bit) measured 12.1 / 2.19 / 2.00 — 3–6 % for an output buffer
// as long as the swept list; not taken.
func BenchmarkIntersectAdjacency(b *testing.B) {
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
		nWords := (n + 63) / 64
		for _, policy := range []string{"merge", "hubs", "pinned"} {
			b.Run(ds.name+"/"+policy, func(b *testing.B) {
				var it graph.Intersector
				it.Words = nWords
				var out, scratch []graph.VertexID
				lists := make([][]graph.VertexID, 2)
				bits := make([]*graph.Bitset, 0, 2)
				var elems, matches int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					elems, matches = 0, 0
					for a := 0; a < n; a++ {
						na := g.Neighbors(graph.VertexID(a), graph.Forward, 0, 0, nil)
						for j, v := range na {
							nb := g.Neighbors(v, graph.Forward, 0, 0, nil)
							lists[0], lists[1] = na, nb
							src := [2]graph.VertexID{graph.VertexID(a), v}
							elems += int64(len(na) + len(nb))
							bits = bits[:0]
							if policy != "merge" {
								if floor, ok := graph.BitsetFetchFloor(lists, nWords); ok {
									for k, l := range lists {
										var bs *graph.Bitset
										if len(l) >= floor {
											bs = g.NeighborBitset(src[k], graph.Forward, 0, 0)
										}
										bits = append(bits, bs)
									}
								}
							}
							same := uint32(0)
							if policy == "pinned" && j > 0 {
								same = 2
							}
							out, scratch = it.IntersectRun(nil, lists, bits, same, out, scratch)
							matches += int64(len(out))
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(elems), "ns/elem")
				b.ReportMetric(float64(matches), "matches")
				b.ReportMetric(float64(it.Counters.PinnedProbe)/float64(b.N), "pinned/op")
			})
		}
	}
}
