package bench

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"graphflow/internal/datagen"
	"graphflow/internal/query"
)

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 13 {
		t.Fatalf("registry has %d experiments, want 13 (every table and figure)", len(exps))
	}
	want := map[string]bool{
		"table3": true, "table4": true, "table5": true, "table6": true,
		"fig7": true, "fig8": true, "fig9": true, "table9": true,
		"fig11": true, "table10": true, "table11": true, "table12": true, "table13": true,
	}
	for _, e := range exps {
		if !want[e.Name] {
			t.Errorf("unexpected experiment %q", e.Name)
		}
		delete(want, e.Name)
	}
	for name := range want {
		t.Errorf("missing experiment %q", name)
	}
	var buf bytes.Buffer
	if err := Run("nope", &buf, 1); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestTable3Smoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Table3(&buf, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "cache-on") || strings.Count(out, "\n") < 4 {
		t.Errorf("table3 output too small:\n%s", out)
	}
}

func TestTable6Smoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Table6(&buf, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "i-cost") {
		t.Errorf("table6 output:\n%s", buf.String())
	}
}

func TestTable13Smoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Table13(&buf, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "BJ-baseline") {
		t.Errorf("table13 output:\n%s", out)
	}
}

func TestFig11Smoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig11(&buf, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "workers=1") {
		t.Errorf("fig11 output:\n%s", buf.String())
	}
}

func TestRandomQueryFromGraph(t *testing.T) {
	g := datagen.Epinions(1)
	rng := rand.New(rand.NewSource(3))
	for _, dense := range []bool{false, true} {
		for _, nv := range []int{5, 10} {
			q := RandomQueryFromGraph(g, nv, dense, rng)
			if q == nil {
				t.Fatalf("no query generated (dense=%v nv=%d)", dense, nv)
			}
			if q.NumVertices() != nv {
				t.Errorf("query has %d vertices, want %d", q.NumVertices(), nv)
			}
			if err := q.Validate(); err != nil {
				t.Errorf("invalid query: %v", err)
			}
			if !noParallelEdges(q) {
				t.Error("parallel edges present")
			}
			if dense {
				// Dense queries come from induced subgraphs: average degree
				// should exceed sparse ones on a dense social graph.
				if 2*len(q.Edges) < 3*nv/2 {
					t.Logf("dense query unexpectedly sparse: %d edges on %d vertices", len(q.Edges), nv)
				}
			}
		}
	}
}

// TestRandomQueryHasMatches: random-walk queries must match at least once
// (their source instance).
func TestRandomQueryHasMatches(t *testing.T) {
	g := datagen.CoPurchase(datagen.CoPurchaseConfig{N: 400, K: 4, Rewire: 0.2, Seed: 51})
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5; i++ {
		q := RandomQueryFromGraph(g, 4, i%2 == 0, rng)
		if q == nil {
			continue
		}
		if query.RefCount(g, q) == 0 {
			t.Errorf("random query has no matches: %s", q)
		}
	}
}

func TestBuildEHPlanCorrectness(t *testing.T) {
	g := datagen.CoPurchase(datagen.CoPurchaseConfig{N: 300, K: 4, Rewire: 0.2, Seed: 61})
	c := cat("Amazon", 1, 1) // catalogue stats need not match the graph for correctness
	for _, j := range []int{1, 3, 8} {
		q := query.Benchmark(j)
		for _, mode := range []EHOrderMode{EHLexicographic, EHGood, EHWorst} {
			p, err := BuildEHPlan(q, c, mode)
			if err != nil {
				t.Fatalf("Q%d mode=%v: %v", j, mode, err)
			}
			secs, n, _, err := timeRun(g, p, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			_ = secs
			if want := query.RefCount(g, q); n != want {
				t.Errorf("Q%d mode=%v: EH count = %d, want %d", j, mode, n, want)
			}
		}
	}
}
