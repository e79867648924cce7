package graphflow

import (
	"testing"

	"graphflow/internal/datagen"
)

// TestLimitStopsAtTheBatchThatReachesIt holds a Limit to the work it
// needs. Both patterns run on cold-plan's graph under the benchmark's
// catalogue, and each plan ends in a factorized tail behind a selective
// E/I, whose few rows would otherwise wait in a partial batch until the
// scan had covered the whole graph. Under a Limit every stage hands its
// partial batch on after each input batch, so a count of 100 (charged
// against the tail's budget) and a Match of 100 rows (unfolded by the
// tail) stop once the rows are there: the intermediate rows stay within a
// quarter of the unlimited run's.
func TestLimitStopsAtTheBatchThatReachesIt(t *testing.T) {
	opts := Options{CatalogueH: 3, CatalogueZ: 1000, Seed: 1, MemGlobalBytes: 1 << 30}
	db, err := newDB(datagen.Relabel(datagen.Epinions(2), 2, 3, 11), opts.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const limit = 100
	for _, pattern := range []string{
		"a3:1 -> a1, a1 -[2]-> a2, a2 -[2]-> a4:1, a2 -[1]-> a3:1",
		"a2:1 -[2]-> a1, a2:1 -[1]-> a4, a3 -> a2:1, a3 -[1]-> a5:1, a1 -> a3",
	} {
		pq, err := db.Prepare(pattern)
		if err != nil {
			t.Fatal(err)
		}
		full, all, err := pq.CountStats(&QueryOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if full <= limit || all.FactorizedAvoided == 0 {
			t.Fatalf("%s: %d matches, %d counted by a factorized tail; the check needs more than %d through a tail\n%s",
				pattern, full, all.FactorizedAvoided, limit, all.Plan)
		}
		bound := all.Intermediate / 4
		n, st, err := pq.CountStats(&QueryOptions{Workers: 1, Limit: limit})
		if err != nil {
			t.Fatal(err)
		}
		if n != limit || st.Intermediate > bound {
			t.Errorf("%s: count with Limit %d = %d after %d intermediate rows; want %d within %d (a quarter of the unlimited run's)",
				pattern, limit, n, st.Intermediate, limit, bound)
		}
		rows := int64(0)
		prof, err := pq.match(func(map[string]uint32) bool { rows++; return true }, QueryOptions{Workers: 1, Limit: limit})
		if err != nil {
			t.Fatal(err)
		}
		if rows != limit || prof.FactorizedPrefixes == 0 || prof.Intermediate > bound {
			t.Errorf("%s: Match with Limit %d delivered %d rows (%d prefixes unfolded by the tail) after %d intermediate rows; want %d within %d",
				pattern, limit, rows, prof.FactorizedPrefixes, prof.Intermediate, limit, bound)
		}
		t.Logf("%s: intermediate rows %d unlimited, %d counting %d, %d matching %d", pattern, all.Intermediate, st.Intermediate, limit, prof.Intermediate, limit)
	}
}
