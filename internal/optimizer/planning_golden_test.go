package optimizer_test

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"graphflow/internal/bench"
	"graphflow/internal/optimizer"
)

// TestPlanningQueriesGolden pins the plan Optimize picks for each of the
// 200 random patterns per size BenchmarkOptimizeCold plans — the shapes
// the cold-plan workload cycles through — one line per pattern: the
// pattern, a digest of the plan's description and its cost.
func TestPlanningQueriesGolden(t *testing.T) {
	g := bench.PlanningGraph(1)
	cat := bench.PlanningCatalogue(g)
	var sb strings.Builder
	for _, n := range []int{4, 5, 6} {
		for _, q := range bench.PlanningQueries(g, n, 200) {
			p, err := optimizer.Optimize(q, optimizer.Options{Catalogue: cat})
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			h := fnv.New64a()
			h.Write([]byte(p.Describe()))
			fmt.Fprintf(&sb, "%s | %s %016x %.12g\n", q, p.Kind(), h.Sum64(), p.EstimatedCost)
		}
	}
	optimizer.CheckGolden(t, "planning_queries.golden", sb.String())
}
