package optimizer

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphflow/internal/catalogue"
	"graphflow/internal/datagen"
	"graphflow/internal/graph"
	"graphflow/internal/query"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current optimizer")

// TestOptimizeGolden pins the plan and the estimated cost of Q1–Q14 on
// two unlabelled graphs (one label group, so catalogue.Build is
// deterministic) under the default options, which price star-shaped
// suffixes the way the factorized tier runs them; each block keeps the
// "factorized=true" tag it was recorded under beside a block that priced
// them otherwise. The files were recorded on the commit before catalogue
// keys became packed canonical codes: a key format, a planner data structure
// or a tie-break may change, the chosen plans and their prices may not.
// A legitimate difference (two automorphic descriptors swapping their
// list sizes) has to be explained where the file is re-recorded with
// -update, not re-goldened silently.
func TestOptimizeGolden(t *testing.T) {
	for _, ds := range []struct {
		name string
		g    *graph.Graph
	}{
		{"epinions", datagen.Epinions(1)},
		{"amazon", datagen.Amazon(1)},
	} {
		cat := catalogue.Build(ds.g, catalogue.Config{H: 3, Z: 1000, Seed: 1})
		var sb strings.Builder
		for j := 1; j <= 14; j++ {
			p, err := Optimize(query.Benchmark(j), Options{Catalogue: cat})
			if err != nil {
				t.Fatalf("%s Q%d: %v", ds.name, j, err)
			}
			fmt.Fprintf(&sb, "Q%d factorized=true cost=%.12g card=%.12g\n%s", j, p.EstimatedCost, p.EstimatedCardinality, p.Describe())
		}
		path := filepath.Join("testdata", ds.name+"_q1_q14.golden")
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := sb.String(); got != string(want) {
			t.Errorf("%s: plans or costs changed against %s:\n%s", ds.name, path, firstDiff(got, string(want)))
		}
	}
}

// firstDiff renders the first differing line pair of two texts.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got  %s\n  want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("length differs: got %d lines, want %d", len(g), len(w))
}
