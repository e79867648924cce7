package optimizer

import (
	"testing"

	"graphflow/internal/catalogue"
	"graphflow/internal/datagen"
	"graphflow/internal/query"
)

// TestOptimizeAllocsCeiling bounds what one cold Optimize allocates, on a
// 5-vertex pattern and on a 6-vertex one (cold-plan's largest, whose pick
// is hybrid). With string catalogue keys the 5-vertex call made 11 187
// allocations, and 399 (1 335 at 6 vertices) when every ordering prefix
// the walk priced was a plan node of its own. What is left is the plans
// the search keeps, copied out of its scratch operators, the scans, the
// DP table and the per-query memos. Each ceiling is the measured count
// plus a fifth: it trips when a node per priced candidate, formatting or
// per-lookup buffers come back, not on a few allocations either way.
func TestOptimizeAllocsCeiling(t *testing.T) {
	cat := catalogue.Build(datagen.Epinions(1), catalogue.Config{H: 3, Z: 200, Seed: 1})
	for _, tc := range []struct {
		pattern  string
		ceiling  float64
		measured int
	}{
		{"a->b, b->c, c->d, d->e, a->e, b->e", 83, 69},
		{"a->b, b->c, c->d, d->e, e->f, f->a, a->c, d->f", 180, 150},
	} {
		canon, _ := query.MustParse(tc.pattern).Canonical()
		opts := Options{Catalogue: cat}
		got := testing.AllocsPerRun(50, func() {
			if _, err := Optimize(canon, opts); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per Optimize (measured %d)", tc.pattern, got, tc.measured)
		if got > tc.ceiling {
			t.Errorf("%s: Optimize allocates %.0f times per call, ceiling %.0f", tc.pattern, got, tc.ceiling)
		}
	}
}
