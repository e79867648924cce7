package optimizer

import (
	"testing"

	"graphflow/internal/catalogue"
	"graphflow/internal/datagen"
	"graphflow/internal/query"
)

// TestOptimizeAllocsCeiling bounds what one cold Optimize of a 5-vertex
// pattern allocates. With string catalogue keys the same call made 11 187
// allocations; what is left is the plan nodes of the orderings the search
// visits, the DP tables and the per-(mask, vertex) statistics memo. The
// ceiling is the measured 416 plus a fifth: it trips when formatting,
// projection copies or per-candidate buffers come back, not on a few
// allocations either way.
func TestOptimizeAllocsCeiling(t *testing.T) {
	const ceiling = 500
	cat := catalogue.Build(datagen.Epinions(1), catalogue.Config{H: 3, Z: 200, Seed: 1})
	canon, _ := query.MustParse("a->b, b->c, c->d, d->e, a->e, b->e").Canonical()
	opts := Options{Catalogue: cat}
	got := testing.AllocsPerRun(50, func() {
		if _, err := Optimize(canon, opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per Optimize", got)
	if got > ceiling {
		t.Errorf("Optimize allocates %.0f times per call, ceiling %d", got, ceiling)
	}
}
