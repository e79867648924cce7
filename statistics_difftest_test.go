package graphflow_test

import (
	"math/rand"
	"testing"

	"graphflow"
	"graphflow/internal/difftest"
)

// TestDifferentialStatisticsGenerations is the live-mutation sweep for
// the statistics generation: the catalogue only steers plan choice, so
// however stale or fresh it is, results must equal a from-scratch
// rebuild. Each trial applies the same random batches to two live DBs —
// one whose statistics stay frozen at generation 0 (its refresher is
// held in flight for the whole trial), one refreshed after every batch —
// and after each batch checks both against the BJ reference on the
// shadow rebuild (hybrid and WCO counts) and against a DB opened over
// that rebuild (limits and row sets).
func TestDifferentialStatisticsGenerations(t *testing.T) {
	numTrials, batchesPer := 6, 4
	if testing.Short() {
		numTrials = 2
	}
	for i := 0; i < numTrials; i++ {
		seed := int64(47000 + i)
		rng := rand.New(rand.NewSource(seed))
		g := difftest.GenGraph(seed)
		threshold := []int{10, -1}[rng.Intn(2)]

		frozen, err := difftest.OpenLiveDB(g, threshold)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		release := make(chan struct{})
		frozen.SetRefreshHook(func() { <-release })
		fresh, err := difftest.OpenLiveDB(g, threshold)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		sh := difftest.NewShadow(g)
		for b := 0; b < batchesPer; b++ {
			batch := difftest.GenBatch(rng, sh)
			for _, db := range []*graphflow.DB{frozen, fresh} {
				if _, err := db.Apply(batch); err != nil {
					t.Fatalf("seed %d batch %d: %v", seed, b, err)
				}
			}
			fresh.RefreshStatistics()
			sh.Apply(batch)
			rebuilt := sh.Build()
			scratch, err := difftest.OpenDB(rebuilt)
			if err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, b, err)
			}
			q := difftest.GenPattern(rng)
			for name, db := range map[string]*graphflow.DB{"frozen": frozen, "refreshed": fresh} {
				res, err := difftest.ComparePair(db, rebuilt, q)
				if err != nil {
					t.Fatalf("seed %d batch %d (%s): %v", seed, b, name, err)
				}
				if !res.Skipped && (res.Got != res.Want || res.GotWCO != res.Want) {
					t.Errorf("seed %d batch %d (%s) %s: hybrid=%d wco=%d reference=%d",
						seed, b, name, res.Pattern, res.Got, res.GotWCO, res.Want)
				}
				if err := difftest.CompareDBs(db, scratch, q); err != nil {
					t.Errorf("seed %d batch %d (%s): %v", seed, b, name, err)
				}
			}
			scratch.Close()
		}
		if gen := frozen.CatalogueStats().Generation; gen != 0 {
			t.Errorf("seed %d: held statistics moved to generation %d", seed, gen)
		}
		if gen := fresh.CatalogueStats().Generation; gen != uint64(batchesPer) {
			t.Errorf("seed %d: refreshed statistics at generation %d, want %d", seed, gen, batchesPer)
		}
		close(release)
		frozen.Close()
		fresh.Close()
	}
}
