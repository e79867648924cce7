package graphflow

// One testing.B benchmark per table and figure of the paper's evaluation.
// Each benchmark runs the experiment's code path on a trimmed workload
// (bench.Quick) so `go test -bench=.` completes in minutes; the full
// experiments — the exact rows the paper reports — are regenerated with
// `go run ./cmd/gfbench -exp <id>` (README, "Commands", cmd/gfbench).

import (
	"io"
	"testing"

	"graphflow/internal/bench"
)

func quick(b *testing.B, name string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := bench.Quick(name, io.Discard, 1); err != nil {
			b.Fatalf("%s: %v", name, err)
		}
	}
}

// BenchmarkTable3IntersectionCache: intersection cache on/off across all
// WCO plans of the diamond-X query (paper Table 3).
func BenchmarkTable3IntersectionCache(b *testing.B) { quick(b, "table3") }

// BenchmarkTable4TriangleQVO: adjacency-list direction effects on the
// asymmetric triangle (paper Table 4).
func BenchmarkTable4TriangleQVO(b *testing.B) { quick(b, "table4") }

// BenchmarkTable5TailedTriangle: intermediate-result effects on the tailed
// triangle (paper Table 5).
func BenchmarkTable5TailedTriangle(b *testing.B) { quick(b, "table5") }

// BenchmarkTable6CacheHits: cache-hit effects on the symmetric diamond-X
// (paper Table 6).
func BenchmarkTable6CacheHits(b *testing.B) { quick(b, "table6") }

// BenchmarkFig7Spectrum: plan-spectrum generation and execution with the
// optimizer's pick marked (paper Figure 7).
func BenchmarkFig7Spectrum(b *testing.B) { quick(b, "fig7") }

// BenchmarkFig8Adaptive: fixed vs adaptive WCO plan execution (paper
// Figure 8).
func BenchmarkFig8Adaptive(b *testing.B) { quick(b, "fig8") }

// BenchmarkFig9EHSpectrum: EmptyHeaded spectra vs Graphflow spectra (paper
// Figure 9).
func BenchmarkFig9EHSpectrum(b *testing.B) { quick(b, "fig9") }

// BenchmarkTable9EH: Graphflow vs EmptyHeaded with good and bad orderings
// (paper Table 9).
func BenchmarkTable9EH(b *testing.B) { quick(b, "table9") }

// BenchmarkFig11Scalability: speedup across worker counts (paper Figure
// 11).
func BenchmarkFig11Scalability(b *testing.B) { quick(b, "fig11") }

// BenchmarkTable10QErrorZ: catalogue q-error vs sample size z (paper
// Table 10).
func BenchmarkTable10QErrorZ(b *testing.B) { quick(b, "table10") }

// BenchmarkTable11QErrorH: catalogue q-error vs maximum subgraph size h,
// with the PostgreSQL-style baseline (paper Table 11).
func BenchmarkTable11QErrorH(b *testing.B) { quick(b, "table11") }

// BenchmarkTable12CFL: CFL-style matcher vs Graphflow on random labelled
// query sets (paper Table 12).
func BenchmarkTable12CFL(b *testing.B) { quick(b, "table12") }

// BenchmarkTable13BJBaseline: edge-at-a-time binary-join baseline vs
// Graphflow (paper Table 13).
func BenchmarkTable13BJBaseline(b *testing.B) { quick(b, "table13") }

// Micro-benchmarks of the core operators, for ablation beyond the paper's
// tables.

func BenchmarkTriangleCountWCO(b *testing.B) {
	db, err := NewFromDataset("Epinions", 1, &Options{CatalogueZ: 300})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Count("a->b, b->c, a->c", nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiamondXParallel(b *testing.B) {
	db, err := NewFromDataset("Amazon", 1, &Options{CatalogueZ: 300})
	if err != nil {
		b.Fatal(err)
	}
	pattern := "a1->a2, a1->a3, a2->a3, a2->a4, a3->a4"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Count(pattern, &QueryOptions{Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizeSevenClique(b *testing.B) {
	db, err := NewFromDataset("Amazon", 1, &Options{CatalogueZ: 300})
	if err != nil {
		b.Fatal(err)
	}
	pattern := "a1->a2, a1->a3, a1->a4, a1->a5, a1->a6, a1->a7," +
		"a2->a3, a2->a4, a2->a5, a2->a6, a2->a7," +
		"a3->a4, a3->a5, a3->a6, a3->a7," +
		"a4->a5, a4->a6, a4->a7, a5->a6, a5->a7, a6->a7"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Explain(pattern); err != nil {
			b.Fatal(err)
		}
	}
}
