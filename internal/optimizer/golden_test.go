package optimizer

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"graphflow/internal/catalogue"
	"graphflow/internal/datagen"
	"graphflow/internal/query"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current optimizer")

// goldenSet is one of the two unlabelled graphs the goldens are recorded
// on (one label group, so catalogue.Build is deterministic).
type goldenSet struct {
	name string
	cat  *catalogue.Catalogue
}

var goldenSets = sync.OnceValue(func() []goldenSet {
	return []goldenSet{
		{"epinions", catalogue.Build(datagen.Epinions(1), catalogue.Config{H: 3, Z: 1000, Seed: 1})},
		{"amazon", catalogue.Build(datagen.Amazon(1), catalogue.Config{H: 3, Z: 1000, Seed: 1})},
	}
})

// TestOptimizeGolden pins the plan and the estimated cost of Q1–Q14 on
// the golden graphs under the default options, which price star-shaped
// suffixes the way the factorized tier runs them; each block keeps the
// "factorized=true" tag it was recorded under beside a block that priced
// them otherwise. The files were recorded on the commit before catalogue
// keys became packed canonical codes: a key format, a planner data structure
// or a tie-break may change, the chosen plans and their prices may not.
// A legitimate difference (two automorphic descriptors swapping their
// list sizes) has to be explained where the file is re-recorded with
// -update, not re-goldened silently.
func TestOptimizeGolden(t *testing.T) {
	for _, ds := range goldenSets() {
		var sb strings.Builder
		for j := 1; j <= 14; j++ {
			p, err := Optimize(query.Benchmark(j), Options{Catalogue: ds.cat})
			if err != nil {
				t.Fatalf("%s Q%d: %v", ds.name, j, err)
			}
			fmt.Fprintf(&sb, "Q%d factorized=true cost=%.12g card=%.12g\n%s", j, p.EstimatedCost, p.EstimatedCardinality, p.Describe())
		}
		checkGolden(t, ds.name+"_q1_q14.golden", sb.String())
	}
}

// TestPlanSpaceGolden pins the plan spectrum (EnumeratePlans, 12 plans
// kept per subquery) and the WCO plan space (EnumerateWCOPlans) of
// Q1–Q14 on the golden graphs, one line per plan: its kind, its cost and
// its signature. The optimizer's searches grow their plans through one
// candidate step; these files hold every plan that step offers a full
// query, not only the winner.
func TestPlanSpaceGolden(t *testing.T) {
	for _, ds := range goldenSets() {
		var spectrum, wco strings.Builder
		for j := 1; j <= 14; j++ {
			opts := Options{Catalogue: ds.cat}
			plans, err := EnumeratePlans(query.Benchmark(j), opts, 12)
			if err != nil {
				t.Fatalf("%s Q%d: %v", ds.name, j, err)
			}
			fmt.Fprintf(&spectrum, "Q%d %d plans\n", j, len(plans))
			for _, sp := range plans {
				fmt.Fprintf(&spectrum, "%s %.12g %s\n", sp.Kind, sp.Cost, planSignature(sp.Plan.Root, nil))
			}
			orders, err := EnumerateWCOPlans(query.Benchmark(j), opts)
			if err != nil {
				t.Fatalf("%s Q%d: %v", ds.name, j, err)
			}
			fmt.Fprintf(&wco, "Q%d %d plans\n", j, len(orders))
			for _, wp := range orders {
				fmt.Fprintf(&wco, "%s %.12g %v %s\n", wp.Plan.Kind(), wp.Cost, wp.Order, planSignature(wp.Plan.Root, nil))
			}
		}
		checkGolden(t, ds.name+"_spectrum.golden", spectrum.String())
		checkGolden(t, ds.name+"_wco_orders.golden", wco.String())
	}
}

// TestBeamGolden pins the plans Optimize picks for queries past the
// full-enumeration limit, which go through beam search: the 12-vertex
// path of TestBeamSearchLargeQuery and an 11-vertex pattern with a
// 4-cycle and a triangle in it.
func TestBeamGolden(t *testing.T) {
	path := "a1->a2"
	for i := 2; i < 12; i++ {
		path += ", " + vname(i) + "->" + vname(i+1)
	}
	cyclic := "a1->a2, a2->a3, a3->a4, a1->a4, a4->a5, a5->a6, a6->a7, a5->a7, a7->a8, a8->a9, a9->a10, a10->a11, a3->a9"
	for _, ds := range goldenSets() {
		var sb strings.Builder
		for _, pat := range []string{path, cyclic} {
			q := query.MustParse(pat)
			p, err := Optimize(q, Options{Catalogue: ds.cat})
			if err != nil {
				t.Fatalf("%s %s: %v", ds.name, pat, err)
			}
			fmt.Fprintf(&sb, "%s\ncost=%.12g card=%.12g\n%s", pat, p.EstimatedCost, p.EstimatedCardinality, p.Describe())
		}
		checkGolden(t, ds.name+"_beam.golden", sb.String())
	}
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("plans or costs changed against %s:\n%s", path, firstDiff(got, string(want)))
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
