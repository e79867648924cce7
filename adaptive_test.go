package graphflow

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"graphflow/internal/adaptive"
	"graphflow/internal/exec"
)

// stripTimes zeroes what legitimately differs between two runs of the same
// work: wall times.
func stripTimes(st Stats) Stats {
	st.StageScanNanos, st.StageExtendNanos, st.StageProbeNanos = 0, 0, 0
	st.StageFactorizedNanos, st.StageBuildNanos, st.StageEmitNanos = 0, 0, 0
	return st
}

// TestAdaptiveComposes: Adaptive selects which compiled form of the plan
// runs and nothing else, so every other option must mean under it what it
// means without it — the same answers from Count and from Match, limits
// hit exactly and natively (no error, less work than the full run, the
// caller's context untouched) — and a plan with nothing to adapt must do
// exactly the work it does without the option.
func TestAdaptiveComposes(t *testing.T) {
	db, err := NewFromDataset("Epinions", 1, &Options{CatalogueZ: 200})
	if err != nil {
		t.Fatal(err)
	}
	// A diamond-X with a triangle on its c-d edge, restricted to WCO
	// plans: a SCAN under a chain of three E/I operators whose orderings
	// read different lists. (The chorded 4-cycle alone is now planned as
	// a SCAN and two leaves, one factorized tail in any order, which
	// leaves nothing to route.)
	pq, err := db.PrepareWCO("a->b, a->c, b->c, b->d, c->d, d->e, c->e")
	if err != nil {
		t.Fatal(err)
	}
	total, full, err := pq.CountStats(&QueryOptions{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.Reroutes == 0 {
		t.Fatal("the adaptive run rerouted nothing; the cases below would not exercise the router")
	}
	type variant struct {
		QueryOptions
		off string // "cache" or "factorization": the ablation run under
	}
	hooks := map[string]func(*exec.RunConfig){"cache": cacheOff, "factorization": noFactorize}
	for _, tc := range []variant{
		{},
		{QueryOptions: QueryOptions{Distinct: true}},
		{QueryOptions: QueryOptions{Limit: 1000}},
		{QueryOptions: QueryOptions{Distinct: true, Limit: 1000}},
		{off: "cache"},
		{off: "factorization"},
		{QueryOptions{Limit: 1000}, "factorization"},
		{QueryOptions: QueryOptions{Workers: 4}},
		{QueryOptions: QueryOptions{Workers: 4, Limit: 1000}},
		{QueryOptions: QueryOptions{MemBudgetBytes: 64 << 20}},
		{QueryOptions: QueryOptions{BatchSize: 3}},
	} {
		base := context.Background()
		if tc.off != "" {
			base = exec.WithRunConfig(base, hooks[tc.off])
		}
		fixed := tc.QueryOptions
		fixed.Context = base
		want, _, err := pq.CountStats(&fixed)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		ctx, cancel := context.WithCancel(base)
		adapted := tc.QueryOptions
		adapted.Adaptive, adapted.Context = true, ctx
		got, st, err := pq.CountStats(&adapted)
		if err != nil || ctx.Err() != nil {
			t.Errorf("adaptive %+v: err = %v, context: %v", tc, err, ctx.Err())
		}
		cancel()
		if got != want {
			t.Errorf("adaptive %+v counted %d, fixed %d", tc, got, want)
		}
		if tc.Limit > 0 {
			if got != tc.Limit || total <= tc.Limit {
				t.Errorf("adaptive %+v counted %d of %d, want exactly the limit", tc, got, total)
			}
			if tc.Workers <= 1 && st.ICost*2 > full.ICost {
				t.Errorf("adaptive %+v: i-cost %d against %d for all %d matches; the limit did not stop the run", tc, st.ICost, full.ICost, total)
			}
		}
		if tc.off == "cache" && (st.CacheHits != 0 || st.CarriedSets != 0 || st.KernelPinnedProbe != 0) {
			t.Errorf("adaptive %+v: %d cache hits, %d carried sets, %d pinned probes with the cache off", tc, st.CacheHits, st.CarriedSets, st.KernelPinnedProbe)
		}
		if tc.off == "factorization" && st.FactorizedPrefixes != 0 {
			t.Errorf("adaptive %+v: %d factorized prefixes with factorization off", tc, st.FactorizedPrefixes)
		}
	}

	// Match honours the option: the routed plan runs, and delivers the
	// fixed plan's rows under the fixed plan's names.
	rows := func(qo QueryOptions) ([]string, int64) {
		var out []string
		prof, err := pq.match(func(m map[string]uint32) bool {
			out = append(out, fmt.Sprintf("a=%d b=%d c=%d d=%d e=%d", m["a"], m["b"], m["c"], m["d"], m["e"]))
			return true
		}, qo)
		if err != nil {
			t.Fatalf("Match %+v: %v", qo, err)
		}
		sort.Strings(out)
		return out, prof.Reroutes
	}
	wantRows, _ := rows(QueryOptions{})
	gotRows, reroutes := rows(QueryOptions{Adaptive: true})
	if reroutes == 0 {
		t.Error("Match with Adaptive rerouted nothing: it did not run the adaptive plan")
	}
	if len(gotRows) != len(wantRows) {
		t.Fatalf("Match with Adaptive delivered %d rows, fixed %d", len(gotRows), len(wantRows))
	}
	for i := range gotRows {
		if gotRows[i] != wantRows[i] {
			t.Fatalf("row %d: adaptive %s, fixed %s", i, gotRows[i], wantRows[i])
		}
	}

	// Nothing to adapt: the same compiled plan, hence the same counters.
	checked := 0
	for _, pattern := range []string{
		"a->b, b->c, a->c",
		"a->b, a->c, b->c, b->d, c->d",
		"a->b, b->c, a->c, a->d, d->e, a->e",
	} {
		pq, err := db.Prepare(pattern)
		if err != nil {
			t.Fatal(err)
		}
		if adaptive.Enumerate(pq.cur.Load().plan, db.planningStats().cat, adaptive.MaxOrderings) != nil {
			continue // the optimizer chose a plan with a chain to adapt on this graph
		}
		checked++
		_, fixed, err := pq.CountStats(nil)
		if err != nil {
			t.Fatal(err)
		}
		_, adapted, err := pq.CountStats(&QueryOptions{Adaptive: true})
		if err != nil {
			t.Fatal(err)
		}
		if stripTimes(adapted) != stripTimes(fixed) {
			t.Errorf("%q has nothing to adapt, yet Adaptive changed its counters:\n%+v\n%+v", pattern, stripTimes(adapted), stripTimes(fixed))
		}
	}
	if checked == 0 {
		t.Error("every pattern of the non-adaptable set got a plan with a chain to adapt")
	}
}
