package exec

import (
	"context"
	"strings"
	"testing"

	"graphflow/internal/datagen"
	"graphflow/internal/plan"
	"graphflow/internal/query"
)

func TestAnalyzeWCOPlan(t *testing.T) {
	g := datagen.Amazon(1)
	q := query.Q4()
	p := buildWCO(t, q, []int{0, 1, 2, 3})
	stats, prof, err := Must(t, g, p).AnalyzeCtx(context.Background(), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Tree mirrors the plan: extend -> extend -> scan.
	if len(stats.Children) != 1 || len(stats.Children[0].Children) != 1 {
		t.Fatalf("stats tree shape wrong:\n%s", stats.Describe())
	}
	scan := stats.Children[0].Children[0]
	if !strings.Contains(scan.Operator, "SCAN") {
		t.Errorf("leaf should be SCAN: %s", scan.Operator)
	}
	if scan.OutTuples != int64(g.NumEdges()) {
		t.Errorf("scan out = %d, want %d", scan.OutTuples, g.NumEdges())
	}
	// Root's output equals match count; per-op i-cost sums to the profile.
	if stats.OutTuples != prof.Matches {
		t.Errorf("root out = %d, matches = %d", stats.OutTuples, prof.Matches)
	}
	sum := int64(0)
	var rec func(s *OpStats)
	rec = func(s *OpStats) {
		sum += s.ICost
		for _, c := range s.Children {
			rec(c)
		}
	}
	rec(stats)
	if sum != prof.ICost {
		t.Errorf("per-op i-cost sum = %d, profile = %d", sum, prof.ICost)
	}
}

func TestAnalyzeHybridPlan(t *testing.T) {
	g := datagen.Amazon(1)
	q := query.Q8()
	left := buildWCO(t, q, []int{0, 1, 2}).Root
	right := buildWCO(t, q, []int{2, 3, 4}).Root
	hj, err := plan.NewHashJoin(left, right)
	if err != nil {
		t.Fatal(err)
	}
	p := &plan.Plan{Query: q, Root: hj}
	stats, prof, err := Must(t, g, p).AnalyzeCtx(context.Background(), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Probes == 0 || stats.BuildRows == 0 {
		t.Errorf("join stats missing: %+v", stats)
	}
	if stats.BuildRows != prof.HashedTuples {
		t.Errorf("build rows = %d, hashed = %d", stats.BuildRows, prof.HashedTuples)
	}
	out := stats.Describe()
	if !strings.Contains(out, "HASHJOIN") || !strings.Contains(out, "probes=") {
		t.Errorf("describe output:\n%s", out)
	}
	// Both scans attributed.
	if len(stats.Children) != 2 {
		t.Fatalf("join should have 2 children")
	}
}

func TestAnalyzeMatchesPlainCount(t *testing.T) {
	g := datagen.Epinions(1)
	q := query.Q1()
	p := buildWCO(t, q, []int{0, 1, 2})
	want, _, err := countPlan(g, p, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	stats, prof, err := Must(t, g, p).AnalyzeCtx(context.Background(), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Matches != want || stats.OutTuples != want {
		t.Errorf("analyze matches = %d/%d, want %d", prof.Matches, stats.OutTuples, want)
	}
}
