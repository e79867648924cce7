package exec

import (
	"context"
	"strings"
	"testing"

	"graphflow/internal/datagen"
	"graphflow/internal/plan"
	"graphflow/internal/query"
)

// TestStageTimesAttributed checks the per-stage wall-time attribution:
// a batch-engine count on a real dataset must charge time to the scan
// and E/I slots — the factorized slot, when the E/I stage is the tail's
// leaf — the total must be positive, and a parallel run's attribution
// must also land (summed across workers).
func TestStageTimesAttributed(t *testing.T) {
	g := datagen.Epinions(1)
	q := query.Q1()
	p := buildWCO(t, q, []int{0, 1, 2})
	for _, workers := range []int{1, 4} {
		for _, off := range []bool{false, true} {
			_, prof, err := countPlan(g, p, RunConfig{Workers: workers, NoFactorize: off})
			if err != nil {
				t.Fatal(err)
			}
			st := prof.Stages
			ei := st.Factorized
			if off {
				ei = st.Extend
			}
			if st.Scan <= 0 || ei <= 0 {
				t.Errorf("workers=%d factorization off=%v: scan=%d E/I=%d nanos, want both > 0", workers, off, st.Scan, ei)
			}
			if st.Total() <= 0 {
				t.Errorf("workers=%d factorization off=%v: total stage time %d, want > 0", workers, off, st.Total())
			}
		}
	}
}

// TestStageTimesHybridPlan checks that a hash-join plan attributes
// build-side sink time to Build and probe time to Probe.
func TestStageTimesHybridPlan(t *testing.T) {
	g := datagen.Amazon(1)
	q := query.Q8()
	left := buildWCO(t, q, []int{0, 1, 2}).Root
	right := buildWCO(t, q, []int{2, 3, 4}).Root
	hj, err := plan.NewHashJoin(left, right)
	if err != nil {
		t.Fatal(err)
	}
	p := &plan.Plan{Query: q, Root: hj}
	_, prof, err := countPlan(g, p, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Stages.Probe <= 0 {
		t.Errorf("probe time = %d nanos, want > 0", prof.Stages.Probe)
	}
	if prof.Stages.Build <= 0 {
		t.Errorf("build time = %d nanos, want > 0", prof.Stages.Build)
	}
}

// TestAnalyzeNanos checks that EXPLAIN ANALYZE attributes wall time to
// every plan node and renders it.
func TestAnalyzeNanos(t *testing.T) {
	g := datagen.Epinions(1)
	p := buildWCO(t, query.Q1(), []int{0, 1, 2})
	stats, prof, err := Must(t, g, p).AnalyzeCtx(context.Background(), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	var rec func(s *OpStats)
	rec = func(s *OpStats) {
		if s.Nanos < 0 {
			t.Errorf("%s: negative nanos %d", s.Operator, s.Nanos)
		}
		sum += s.Nanos
		for _, c := range s.Children {
			rec(c)
		}
	}
	rec(stats)
	if sum <= 0 {
		t.Fatalf("no wall time attributed:\n%s", stats.Describe())
	}
	// Per-node times are self times folded from the profile's slots.
	if total := prof.Stages.Total(); sum != total {
		t.Errorf("per-node nanos sum %d != profile stage total %d", sum, total)
	}
	if out := stats.Describe(); !strings.Contains(out, "time=") {
		t.Errorf("describe missing time annotation:\n%s", out)
	}
}
