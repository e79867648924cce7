package graph

import (
	"math/rand"
	"testing"
)

// benchLists builds the canonical E/I shape: k ID-sorted adjacency runs
// over one universe, with controllable skew.
func benchLists(lengths []int, maxGap int, seed int64) [][]VertexID {
	rng := rand.New(rand.NewSource(seed))
	lists := make([][]VertexID, len(lengths))
	for i, l := range lengths {
		lists[i] = randomSortedList(rng, l, maxGap)
	}
	return lists
}

// BenchmarkIntersectKSorted is the allocation guard of the E/I hot path:
// a 3-way intersection over plain sorted lists through the Intersector
// must report 0 allocs/op (CI greps for it; TestIntersectorZeroAllocs is
// the in-process equivalent).
func BenchmarkIntersectKSorted(b *testing.B) {
	benchIntersectK(b, benchLists([]int{40, 900, 700}, 4, 1))
}

// BenchmarkIntersectHubSkewed is a short frontier list against a hub
// adjacency three orders of magnitude larger: the gallop.
func BenchmarkIntersectHubSkewed(b *testing.B) {
	benchIntersectK(b, benchLists([]int{64, 1 << 17}, 3, 2))
}

// BenchmarkIntersectUniform is two similar-size lists: the merge.
func BenchmarkIntersectUniform(b *testing.B) {
	benchIntersectK(b, benchLists([]int{5000, 6000}, 200, 3))
}

func benchIntersectK(b *testing.B, lists [][]VertexID) {
	var it Intersector
	var out, scratch []VertexID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, scratch = it.IntersectSeeded(nil, lists, out, scratch)
	}
	_ = out
}
