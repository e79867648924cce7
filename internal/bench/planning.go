package bench

import (
	"math/rand"
	"testing"

	"graphflow/internal/catalogue"
	"graphflow/internal/datagen"
	"graphflow/internal/graph"
	"graphflow/internal/optimizer"
	"graphflow/internal/query"
)

// PlanningGraph returns the graph the planning-cost benchmarks run on: Epinions under the repository benchmark's cold-plan labelling
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

// PlanningCatalogue builds the catalogue the planning-cost benchmarks
// plan against.
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
		if _, err := optimizer.Optimize(qs[i%len(qs)], optimizer.Options{Catalogue: c}); err != nil {
			b.Fatal(err)
		}
	}
}
