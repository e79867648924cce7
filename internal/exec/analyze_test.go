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

// TestAnalyzeShowsComponentTail holds EXPLAIN ANALYZE to the tail a
// count runs: the root lists each component with its separator, the keys
// it was evaluated for, the rows its cache served and the rows whose
// count it shared — with the prefix's runs (the bowtie's wing) or with an
// identical component (the second of two 4-cycles on one edge) — while
// the root's output is the match count and the operators' i-cost adds up
// to the run's.
func TestAnalyzeShowsComponentTail(t *testing.T) {
	g := labelledRandomGraph(41, 24, 8)
	plans := componentPlans(t)
	for _, tc := range []struct {
		name  string
		comps []ComponentStats // names and what is shared; counters checked below
	}{
		{"bowtie", []ComponentStats{{Component: "{a4,a5} on {a1}", SharedWith: "prefix"}}},
		{"cycles", []ComponentStats{{Component: "{a3,a4} on {a1,a2}"}, {Component: "{a5,a6} on {a1,a2}", SharedWith: "{a3,a4} on {a1,a2}"}}},
	} {
		p := plans[tc.name]
		cp := Must(t, g, p)
		stats, prof, err := cp.AnalyzeCtx(context.Background(), RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		want := refCount(g, p)
		if prof.Matches != want || stats.OutTuples != want {
			t.Errorf("%s: analyzed %d matches, root out %d; want %d", tc.name, prof.Matches, stats.OutTuples, want)
		}
		if len(stats.Components) != len(tc.comps) {
			t.Fatalf("%s: %d components, want %d:\n%s", tc.name, len(stats.Components), len(tc.comps), stats.Describe())
		}
		for i, c := range stats.Components {
			w := tc.comps[i]
			if c.Component != w.Component || c.SharedWith != w.SharedWith {
				t.Errorf("%s: component %d is %q sharing with %q, want %q sharing with %q", tc.name, i, c.Component, c.SharedWith, w.Component, w.SharedWith)
			}
			// A twin of a component evaluates no key of its own.
			twin := w.SharedWith != "" && w.SharedWith != "prefix"
			if (c.Keys == 0) != twin || (w.SharedWith == "") != (c.Shared == 0) {
				t.Errorf("%s: component %q: %d keys, %d cached, %d shared", tc.name, c.Component, c.Keys, c.Cached, c.Shared)
			}
			if !strings.Contains(stats.Describe(), "COMPONENT "+c.Component) {
				t.Errorf("%s: Describe does not name %q:\n%s", tc.name, c.Component, stats.Describe())
			}
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
			t.Errorf("%s: per-op i-cost sum = %d, profile = %d", tc.name, sum, prof.ICost)
		}
		// The bowtie's wing is counted off the runs of the triangles: every
		// triangle row is one the prefix run shares.
		if tc.name == "bowtie" {
			tri := refCount(g, buildWCO(t, query.MustParse("a->b, b->c, a->c"), chainOrder(3)))
			if c := stats.Components[0]; c.Shared != tri {
				t.Errorf("bowtie: %d rows shared the prefix's run count, want the %d triangles", c.Shared, tri)
			}
		}
		off, _, err := cp.AnalyzeCtx(context.Background(), RunConfig{NoFactorize: true})
		if err != nil || len(off.Components) != 0 || off.OutTuples != want {
			t.Errorf("%s with factorization off: %d components, root out %d, %v; want none, %d", tc.name, len(off.Components), off.OutTuples, err, want)
		}
	}
}
