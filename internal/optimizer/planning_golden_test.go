package optimizer_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"graphflow/internal/bench"
	"graphflow/internal/optimizer"
	"graphflow/internal/query"
)

// TestPlanningQueriesGolden pins the plan Optimize picks for each of the
// 200 random patterns per size BenchmarkOptimizeCold plans — the shapes
// the cold-plan workload cycles through — and for 50 patterns each of 7
// and 8 vertices, where the walk over WCO orderings is widest, one line
// per pattern: the pattern, a digest of the plan's description and its
// cost.
func TestPlanningQueriesGolden(t *testing.T) {
	g := bench.PlanningGraph(1)
	cat := bench.PlanningCatalogue(g)
	var sb strings.Builder
	for _, size := range []struct{ n, count int }{{4, 200}, {5, 200}, {6, 200}, {7, 50}, {8, 50}} {
		for _, q := range bench.PlanningQueries(g, size.n, size.count) {
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

// TestDPExtendsOnlyJoinedRows holds the exact DP's rule that grow puts an
// E/I only on a kept plan a hash join built (keeper.seeded) to the DP that
// extends every kept plan: on 4–9-vertex planning patterns, and on Q1–Q14
// on the golden graphs (whose picks put E/Is on joins; the planning
// patterns' never do), both pick the same plan at a bit-identical cost. A
// kept plan without a join is a WCO prefix, and the walk over WCO
// orderings offered each of its E/Is already.
func TestDPExtendsOnlyJoinedRows(t *testing.T) {
	// sameAsEveryRow compares the two on q and returns the candidates the
	// rule did not offer and those the DP without it offered.
	sameAsEveryRow := func(q *query.Graph, opts optimizer.Options) (saved, offered int) {
		t.Helper()
		p, err := optimizer.Optimize(q, opts)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		every, cost, all, err := optimizer.PlanDP(q, opts, true)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if p.Describe() != every.Describe() || math.Float64bits(p.EstimatedCost) != math.Float64bits(cost) {
			t.Errorf("%s: Optimize picks\n%s(cost %v), extending every kept plan\n%s(cost %v)", q, p.Describe(), p.EstimatedCost, every.Describe(), cost)
		}
		_, _, seeded, _ := optimizer.PlanDP(q, opts, false)
		return all - seeded, all
	}
	g := bench.PlanningGraph(1)
	opts := optimizer.Options{Catalogue: bench.PlanningCatalogue(g)}
	for _, size := range []struct{ n, count int }{{4, 50}, {5, 50}, {6, 50}, {7, 50}, {8, 30}, {9, 10}} {
		saved, offered := 0, 0
		for _, q := range bench.PlanningQueries(g, size.n, size.count) {
			s, o := sameAsEveryRow(q, opts)
			saved, offered = saved+s, offered+o
		}
		t.Logf("%d patterns of %d vertices: the rule offers %d of %d candidates fewer", size.count, size.n, saved, offered)
	}
	for _, name := range []string{"epinions", "amazon"} {
		saved, offered := 0, 0
		for j := 1; j <= 14; j++ {
			s, o := sameAsEveryRow(query.Benchmark(j), optimizer.Options{Catalogue: optimizer.GoldenCatalogue(name)})
			saved, offered = saved+s, offered+o
		}
		t.Logf("Q1–Q14 on %s: the rule offers %d of %d candidates fewer", name, saved, offered)
	}
}
