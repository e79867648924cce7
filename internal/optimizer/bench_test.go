package optimizer_test

import (
	"fmt"
	"testing"

	"graphflow/internal/bench"
)

// BenchmarkOptimizeCold is what a plan-cache miss costs by pattern size:
// one Optimize per op over 200 random patterns drawn from the planning
// graph (bench.BenchmarkOptimize).
func BenchmarkOptimizeCold(b *testing.B) {
	g := bench.PlanningGraph(1)
	cat := bench.PlanningCatalogue(g)
	for _, n := range []int{4, 5, 6} {
		qs := bench.PlanningQueries(g, n, 200)
		b.Run(fmt.Sprintf("v%d", n), func(b *testing.B) { bench.BenchmarkOptimize(b, cat, qs) })
	}
}
