package exec

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"graphflow/internal/faultinject"
	"graphflow/internal/graph"
	"graphflow/internal/plan"
	"graphflow/internal/query"
)

// pinnedProbes sums the pinned-probe dispatches w's E/I stages have
// counted since their counters were last flushed.
func pinnedProbes(w *worker) int64 {
	var n int64
	w.eachState(func(st *extendState) { n += st.it.Counters.PinnedProbe }, func(*probeState) {})
	return n
}

// pinnedShapes are the plans the pinned-operand tests sweep: the first
// stage of each re-reads N(a) for every edge of a; the cliques add carried
// runs, the leaves and the twin a factorized tail whose leaves inherit
// from the stage below and from each other.
func pinnedShapes(t testing.TB) map[string]*plan.Plan {
	return map[string]*plan.Plan{
		"triangle":   buildWCO(t, query.Q1(), chainOrder(3)),
		"diamondx":   buildWCO(t, query.Q4(), chainOrder(4)),
		"clique4":    buildWCO(t, cliqueQuery(4), chainOrder(4)),
		"clique5":    buildWCO(t, cliqueQuery(5), chainOrder(5)),
		"tri2leaf":   buildWCO(t, query.MustParse("a->b, b->c, a->c, a->d, a->e"), chainOrder(5)),
		"twinLeaves": buildWCO(t, query.MustParse("a->b, a->c, b->c, a->d, b->d, c->d, a->e, b->e, c->e"), chainOrder(5)),
	}
}

// TestPinnedAccounting pins what pinning may and may not change: the
// answer (the reference count's), Intermediate, CacheHits, CarriedSets
// and — the optimizer's currency — ICost are those of the same plan at
// one row a batch, where no prefix run forms and nothing is pinned, at
// every batch size and through every consumer of extendState; what moves
// is the kernel mix, merges becoming pinned probes one for one; and
// DisableCache turns it off with the cache.
func TestPinnedAccounting(t *testing.T) {
	g := denseRandomGraph(31, 44, 0.3)
	sizes := batchSizesUnderTest
	if testing.Short() {
		sizes = []int{1, 64}
	}
	for name, p := range pinnedShapes(t) {
		cp := Must(t, g, p)
		want := refCount(g, p)
		if want == 0 {
			t.Fatalf("%s: no matches; test is vacuous", name)
		}
		_, rowProf, err := cp.CountCtx(context.Background(), RunConfig{BatchSize: 1, NoFactorize: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, bs := range sizes {
			for _, cfg := range []RunConfig{
				{BatchSize: bs, NoFactorize: true},
				{BatchSize: bs},
				{BatchSize: bs, Workers: 4},
			} {
				n, prof, err := cp.CountCtx(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if n != want {
					t.Errorf("%s cfg=%+v: count %d, reference %d", name, cfg, n, want)
				}
				// A prefix run is found inside one batch: one-row batches
				// hold none.
				if (prof.Kernels.PinnedProbe > 0) != (bs > 1) {
					t.Errorf("%s cfg=%+v: %d pinned probes dispatched", name, cfg, prof.Kernels.PinnedProbe)
				}
				if cfg.Workers <= 1 && cfg.NoFactorize {
					// Same rows through the same stages as at one row a batch.
					if prof.Intermediate != rowProf.Intermediate || prof.CacheHits != rowProf.CacheHits ||
						prof.ICost != rowProf.ICost || prof.CarriedSets != rowProf.CarriedSets {
						t.Errorf("%s cfg=%+v: intermediate %d hits %d i-cost %d carried %d, at one row a batch %d, %d, %d and %d", name, cfg,
							prof.Intermediate, prof.CacheHits, prof.ICost, prof.CarriedSets,
							rowProf.Intermediate, rowProf.CacheHits, rowProf.ICost, rowProf.CarriedSets)
					}
				}
				off := cfg
				off.DisableCache = true
				nOff, profOff, err := cp.CountCtx(context.Background(), off)
				if err != nil {
					t.Fatal(err)
				}
				if nOff != want || profOff.Kernels.PinnedProbe != 0 || profOff.CarriedSets != 0 {
					t.Errorf("%s cfg=%+v: count %d pinned %d carried %d, want %d and nothing pinned or carried with the cache off",
						name, off, nOff, profOff.Kernels.PinnedProbe, profOff.CarriedSets, want)
				}
			}
		}
	}
	// One for one: on the triangle every intersection is one pairwise
	// step, so whatever is a pinned probe now was a merge or a gallop
	// with the cache off, and nothing else moved.
	cp := Must(t, g, buildWCO(t, query.Q1(), chainOrder(3)))
	_, on, err := cp.CountCtx(context.Background(), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_, off, err := cp.CountCtx(context.Background(), RunConfig{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	steps := func(k graph.KernelCounters) int64 {
		return k.Merge + k.Gallop + k.PinnedProbe
	}
	if on.CacheHits != 0 || steps(on.Kernels) != steps(off.Kernels) || on.ICost != off.ICost {
		t.Errorf("triangle: %+v (i-cost %d) with pinning, %+v (i-cost %d) without: kernel steps and i-cost must match",
			on.Kernels, on.ICost, off.Kernels, off.ICost)
	}
	if on.Kernels.PinnedProbe == 0 || on.Kernels.Merge >= off.Kernels.Merge {
		t.Errorf("triangle: merges %d -> %d with %d pinned probes; pinning moved nothing", off.Kernels.Merge, on.Kernels.Merge, on.Kernels.PinnedProbe)
	}
	// Analyze attributes them per operator.
	ops, _, err := Must(t, g, buildWCO(t, cliqueQuery(4), chainOrder(4))).AnalyzeCtx(context.Background(), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if ops.PinnedProbes == 0 || ops.Children[0].PinnedProbes == 0 {
		t.Errorf("analyze: pinned %d on the top operator, %d below; want both > 0\n%s", ops.PinnedProbes, ops.Children[0].PinnedProbes, ops.Describe())
	}
}

// TestPinnedCarriedRunIdentity is the regression test of the first trap:
// a carried set must be recognised by the run it belongs to, never by the
// slice that holds it. At BatchSize 1 every run is cut into one-row
// batches and reaches the consumer through the producer's reused buffers
// — tailSet aliasing its kernel output, headSet its headBuf — so two
// different sets of equal length regularly sit at one address; a pin
// keyed by pointer and length probes the second run through the first
// run's bits (8 381 against a true count of 4 977 on the prototype).
// Equal-length neighbouring runs are guaranteed here by construction:
// every vertex of a complete graph's orientation has the same
// neighbourhood size pattern, and the corpus adds random dense graphs.
func TestPinnedCarriedRunIdentity(t *testing.T) {
	graphs := map[string]*graph.Graph{}
	// Transitive tournament: N+(a) ∩ N+(b) = {b+1..n-1}, so consecutive
	// edges (a, b), (a, b+1) carry sets whose lengths differ by one, and
	// edges (a, b), (a+1, b) carry equal sets at (usually) one address.
	tour := graph.NewBuilder(14)
	for u := 0; u < 14; u++ {
		for v := u + 1; v < 14; v++ {
			tour.AddEdge(graph.VertexID(u), graph.VertexID(v), 0)
		}
	}
	graphs["tournament"] = tour.MustBuild()
	// A cyclic orientation of the same: every vertex points to the next 6,
	// so every first-stage set has one of very few lengths.
	ring := graph.NewBuilder(15)
	for u := 0; u < 15; u++ {
		for d := 1; d <= 6; d++ {
			ring.AddEdge(graph.VertexID(u), graph.VertexID((u+d)%15), 0)
		}
	}
	graphs["ring"] = ring.MustBuild()
	graphs["dense"] = denseRandomGraph(52000, 40, 0.3)
	for gname, g := range graphs {
		for name, p := range pinnedShapes(t) {
			cp := Must(t, g, p)
			if !hasInheritingStage(cp) {
				continue
			}
			want := refCount(g, p)
			for _, bs := range []int{1, 2, 3} {
				for _, cfg := range []RunConfig{
					{BatchSize: bs, NoFactorize: true},
					{BatchSize: bs},
				} {
					n, prof, err := cp.CountCtx(context.Background(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					if n != want {
						t.Errorf("%s/%s cfg=%+v: count %d, reference %d (%d pinned probes)", gname, name, cfg, n, want, prof.Kernels.PinnedProbe)
					}
				}
			}
		}
	}
}

// TestPinnedBitmapSurvivesAbandonedRuns is the regression test of the
// second trap: a run that unwinds mid-batch — a Limit reached, a
// cancelled context, an injected panic (TestPinnedBitmapBudget has the
// exhausted budget) — leaves its last operand marked in the stage's
// bitmap, and the worker goes back to the pool (all but the poisoned
// one). The next run on it must start from a clean bitmap: every full
// count after every kind of abandoned run equals the reference count.
func TestPinnedBitmapSurvivesAbandonedRuns(t *testing.T) {
	g := denseRandomGraph(33, 70, 0.3) // every shape produces several poll intervals' worth of tuples
	for name, p := range pinnedShapes(t) {
		cp := Must(t, g, p)
		want := refCount(g, p)
		check := func(after string) {
			t.Helper()
			for _, cfg := range []RunConfig{{NoFactorize: true}, {}} {
				n, prof, err := cp.CountCtx(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if n != want || prof.Kernels.PinnedProbe == 0 {
					t.Errorf("%s after %s, cfg=%+v: count %d (%d pinned probes), reference %d", name, after, cfg, n, prof.Kernels.PinnedProbe, want)
				}
			}
		}
		for _, off := range []bool{false, true} {
			cfg := RunConfig{NoFactorize: off}
			for _, limit := range []int64{1, min(want/3, 5000)} {
				if limit < 1 {
					continue
				}
				if n, _, err := cp.CountUpToCtx(context.Background(), cfg, limit); err != nil || n != limit {
					t.Fatalf("%s: CountUpToCtx(%d) = %d, %v", name, limit, n, err)
				}
				check("a limit")
			}
			// Cancellation observed at the first pollpoint inside the run (the
			// driver's own check before the pipeline starts is poll one).
			ctx := &flakyCtx{Context: context.Background(), after: 1}
			if _, err := cp.RunCtx(ctx, cfg, func([]graph.VertexID) bool { return true }); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: cancelled run returned %v", name, err)
			}
			check("a cancellation")
			// An injected panic poisons its worker; the run after it builds a
			// fresh one or reuses an older pooled one.
			faulty := cfg
			faulty.Faults = &faultinject.Injector{PanicEvery: 1, Points: 1 << faultinject.PointPoll}
			var pe *PanicError
			if _, err := cp.RunCtx(context.Background(), faulty, func([]graph.VertexID) bool { return true }); !errors.As(err, &pe) {
				t.Fatalf("%s: faulted run returned %v", name, err)
			}
			check("an injected panic")
		}
	}
}

// TestPinnedWildcardLists is the regression test of the third trap, and of
// the rule that keeps multisets out of the bitmap. Wildcard-label
// adjacency is merged into a NeighborReader's buffer that the reader's
// next Read overwrites, so neither the pin (which must clear its bits long
// after) nor a descriptor whose source vertex did not change (whose list
// is not looked up again) may depend on anything but its own copy, or the
// untouched reader's buffer: wildcard vertex labels (on every vertex but
// the scan's source, which is matched by equality) read that way and are
// pinned. Wildcard edge labels are not: on a graph with parallel edges
// under different labels — a third of the pairs here — their lists hold
// a neighbour once per label, the sorted kernels keep the smaller
// multiplicity, and a bitmap would not; such a stage runs as it always
// did.
//
// Wildcard vertex labels are held to the reference matcher. Wildcard edge
// labels are held to the same plan at one row a batch, where nothing is
// pinned: the kernels' multiset count is the engine's own definition, and
// no reference computes it (the reference matcher binds a pair of
// vertices once, whatever number of labels joins them).
func TestPinnedWildcardLists(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	const n = 72 // IDs span two bitmap words
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetVertexLabel(graph.VertexID(v), graph.Label(rng.Intn(2)))
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || rng.Float64() >= 0.4 {
				continue
			}
			l := graph.Label(rng.Intn(3))
			b.AddEdge(graph.VertexID(u), graph.VertexID(v), l)
			if rng.Intn(3) == 0 {
				b.AddEdge(graph.VertexID(u), graph.VertexID(v), (l+1)%3)
			}
		}
	}
	g := b.MustBuild()
	wild := func(q *query.Graph, edges, vertices bool) *query.Graph {
		q = q.Clone()
		if edges {
			for i := range q.Edges {
				q.Edges[i].Label = graph.WildcardLabel
			}
		}
		if vertices {
			for i := 1; i < len(q.Vertices); i++ {
				q.Vertices[i].Label = graph.WildcardLabel
			}
		}
		return q
	}
	for name, p := range pinnedShapes(t) {
		for _, mode := range []struct{ edges, vertices bool }{{false, true}, {true, false}} {
			wp := buildWCO(t, wild(p.Query, mode.edges, mode.vertices), chainOrder(len(p.Query.Vertices)))
			cp := Must(t, g, wp)
			want, rowProf, err := cp.CountCtx(context.Background(), RunConfig{BatchSize: 1, NoFactorize: true})
			if err != nil {
				t.Fatal(err)
			}
			if want == 0 {
				t.Fatalf("%s %+v: no matches; test is vacuous", name, mode)
			}
			if !mode.edges {
				if ref := refCount(g, wp); want != ref {
					t.Fatalf("%s %+v: count %d, reference %d", name, mode, want, ref)
				}
			}
			// Row sets where they are small; the leafy shapes run to millions.
			var wantTuples []string
			if want <= 20000 {
				if mode.edges {
					wantTuples = sortedTuples(t, cp, RunConfig{BatchSize: 1})
				} else {
					wantTuples = refTuples(g, wp)
				}
			}
			for _, bs := range []int{1, 64} {
				for _, cfg := range []RunConfig{{BatchSize: bs, NoFactorize: true}, {BatchSize: bs}} {
					if want > 2_000_000 && cfg.NoFactorize {
						continue // enumerating the leaves' product row by row adds nothing here
					}
					n, prof, err := cp.CountCtx(context.Background(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					if n != want {
						t.Errorf("%s %+v cfg=%+v: count %d, want %d", name, mode, cfg, n, want)
					}
					if pinned := prof.Kernels.PinnedProbe > 0; pinned != (!mode.edges && bs > 1) {
						t.Errorf("%s %+v cfg=%+v: %d pinned probes; wildcard vertex labels pin (in batches of two rows or more), wildcard edge labels must not", name, mode, cfg, prof.Kernels.PinnedProbe)
					}
					if cfg.NoFactorize && prof.ICost != rowProf.ICost {
						t.Errorf("%s %+v cfg=%+v: i-cost %d, at one row a batch %d", name, mode, cfg, prof.ICost, rowProf.ICost)
					}
				}
				if wantTuples == nil {
					continue
				}
				got := sortedTuples(t, cp, RunConfig{BatchSize: bs})
				if len(got) != len(wantTuples) {
					t.Fatalf("%s %+v bs=%d: %d tuples, want %d", name, mode, bs, len(got), len(wantTuples))
				}
				for i := range got {
					if got[i] != wantTuples[i] {
						t.Fatalf("%s %+v bs=%d: tuple[%d] = %s, want %s", name, mode, bs, i, got[i], wantTuples[i])
					}
				}
			}
		}
	}
}
