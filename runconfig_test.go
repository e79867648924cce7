package graphflow

import (
	"context"
	"fmt"
	"testing"

	"graphflow/internal/exec"
	"graphflow/internal/optimizer"
	"graphflow/internal/query"
)

// TestOneRunConfiguration holds the way internal/bench plans and runs a
// query to the way the DB does: optimizer.Optimize over the canonical
// query with only the DB's catalogue set gives the plan the DB prepared
// (the same PlanDigest), and a zero exec.RunConfig on that plan reports
// the count, ICost, Intermediate and FactorizedAvoided of the DB's own
// count at Workers: 1. The queries are the five hot-count patterns on
// LiveJournal(1) under BenchmarkHotPatterns' options and Fig. 7's queries
// on Amazon(1).
func TestOneRunConfiguration(t *testing.T) {
	hot, err := NewFromDataset("LiveJournal", 1, &Options{CatalogueH: 3, CatalogueZ: 1000, Seed: 1, MemGlobalBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	amazon, err := NewFromDataset("Amazon", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	type tc struct {
		db            *DB
		name, pattern string
	}
	cases := []tc{
		{hot, "tri", "a->b, b->c, a->c"},
		{hot, "diamondx", "a->b, a->c, b->c, b->d, c->d"},
		{hot, "tri2leaf", "a->b, b->c, a->c, a->d, a->e"},
		{hot, "clique4", "a->b, a->c, a->d, b->c, b->d, c->d"},
		{hot, "bowtie", "a->b, b->c, a->c, a->d, d->e, a->e"},
	}
	for _, j := range []int{1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13} {
		cases = append(cases, tc{amazon, fmt.Sprintf("Amazon Q%d", j), query.Benchmark(j).String()})
	}
	factorized := false
	for _, c := range cases {
		pq, err := c.db.Prepare(c.pattern)
		if err != nil {
			t.Fatal(err)
		}
		p, err := optimizer.Optimize(pq.canon, optimizer.Options{Catalogue: c.db.planningStats().cat})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := planDigest(pq.code, p), pq.PlanDigest(); got != want {
			t.Errorf("%s: optimizer.Optimize gives plan %s, the DB plan %s:\n%s\nDB:\n%s", c.name, got, want, p.Describe(), pq.Stats().Plan)
			continue
		}
		cp, err := exec.Compile(c.db.store.Snapshot(), p)
		if err != nil {
			t.Fatal(err)
		}
		n, prof, err := cp.CountCtx(context.Background(), exec.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		want, st, err := pq.CountStats(&QueryOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if n != want || prof.ICost != st.ICost || prof.Intermediate != st.Intermediate || prof.FactorizedAvoided != st.FactorizedAvoided {
			t.Errorf("%s: a zero RunConfig counts %d (icost %d, intermediate %d, factorized %d); the DB %d (%d, %d, %d)", c.name,
				n, prof.ICost, prof.Intermediate, prof.FactorizedAvoided, want, st.ICost, st.Intermediate, st.FactorizedAvoided)
		}
		factorized = factorized || st.FactorizedAvoided > 0
	}
	if !factorized {
		t.Error("no query counted a match through a factorized product; the check is vacuous")
	}
}
