package bench

import (
	"fmt"
	"math/rand"
	"testing"

	"graphflow/internal/catalogue"
	"graphflow/internal/datagen"
	"graphflow/internal/graph"
	"graphflow/internal/optimizer"
	"graphflow/internal/query"
)

// PlanningGraph returns the graph the planning-cost rows and benchmarks
// run on: Epinions under the repository benchmark's cold-plan labelling
// (two vertex labels by three edge labels), which spreads random patterns
// over thousands of catalogue entries instead of the unlabelled graph's
// few hundred.
func PlanningGraph(scale int) *graph.Graph {
	return datagen.Relabel(datagen.Epinions(scale), 2, 3, 11)
}

// PlanningQueries draws count sparse patterns of numVertices vertices
// from g by random walk, the way cold-plan fills its pool. The draw is a
// function of (g, numVertices, count) alone.
func PlanningQueries(g *graph.Graph, numVertices, count int) []*query.Graph {
	rng := rand.New(rand.NewSource(int64(numVertices)))
	out := make([]*query.Graph, 0, count)
	for len(out) < count {
		if q := RandomQueryFromGraph(g, numVertices, false, rng); q != nil {
			canon, _ := q.Canonical()
			out = append(out, canon)
		}
	}
	return out
}

// PlanningCatalogue builds the catalogue the planning-cost rows and
// benchmarks plan against.
func PlanningCatalogue(g *graph.Graph) *catalogue.Catalogue {
	return catalogue.Build(g, planningConfig)
}

var planningConfig = catalogue.Config{H: 3, Z: 1000, Seed: 1}

// BenchmarkOptimize is what a plan-cache miss costs: one Optimize per op
// under the options the DB plans with, cycling through qs so that no two
// consecutive ops plan the same query.
func BenchmarkOptimize(b *testing.B, c *catalogue.Catalogue, qs []*query.Graph) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := optimizer.Optimize(qs[i%len(qs)], optimizer.Options{Catalogue: c, Factorized: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// planningRows measures what a plan-cache miss and a statistics refresh
// cost: BenchmarkOptimize over 200 patterns per size, and one
// catalogue.Build per op.
func planningRows(scale int) []MicroResult {
	g := PlanningGraph(scale)
	c := PlanningCatalogue(g)
	var out []MicroResult
	for _, n := range []int{4, 5, 6} {
		qs := PlanningQueries(g, n, 200)
		r := testing.Benchmark(func(b *testing.B) { BenchmarkOptimize(b, c, qs) })
		out = append(out, planningRow(fmt.Sprintf("optimize/v%d", n), "optimizer", r))
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			PlanningCatalogue(g)
		}
	})
	return append(out, planningRow("catalogue/build", "catalogue", r))
}

func planningRow(name, engine string, r testing.BenchmarkResult) MicroResult {
	return MicroResult{
		Name:        name,
		Graph:       "Epinions-2x3",
		Engine:      engine,
		Workers:     1,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}
