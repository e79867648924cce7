package difftest

import (
	"context"
	"math/rand"
	"testing"

	"graphflow"
	"graphflow/internal/exec"
	"graphflow/internal/graph"
	"graphflow/internal/live"
	"graphflow/internal/plan"
	"graphflow/internal/query"
)

// runCorpus checks numGraphs random graphs × patternsPer random patterns
// against the BJ reference.
func runCorpus(t *testing.T, firstSeed int64, numGraphs, patternsPer int) {
	t.Helper()
	skipped := 0
	for gi := 0; gi < numGraphs; gi++ {
		seed := firstSeed + int64(gi)
		g := GenGraph(seed)
		db, err := OpenDB(g)
		if err != nil {
			t.Fatalf("graph seed %d: %v", seed, err)
		}
		rng := rand.New(rand.NewSource(seed * 7919))
		for pi := 0; pi < patternsPer; pi++ {
			q := GenPattern(rng)
			res, err := ComparePair(db, g, q)
			if err != nil {
				t.Fatalf("graph seed %d pattern %d: %v", seed, pi, err)
			}
			if res.Skipped {
				skipped++
				continue
			}
			if res.Got != res.Want {
				t.Errorf("graph seed %d: %s plan of %q counted %d, BJ reference %d",
					seed, res.PlanKind, res.Pattern, res.Got, res.Want)
			}
			if res.GotWCO != res.Want {
				t.Errorf("graph seed %d: WCO plan of %q counted %d, BJ reference %d",
					seed, res.Pattern, res.GotWCO, res.Want)
			}
		}
	}
	total := numGraphs * patternsPer
	if skipped > total/2 {
		t.Errorf("%d/%d pairs skipped on the reference budget; corpus too thin", skipped, total)
	}
	t.Logf("corpus: %d pairs, %d skipped", total-skipped, skipped)
}

// TestDifferentialBounded is the always-on corpus: small enough for the
// race-enabled CI job, broad enough to catch planner/executor drift.
func TestDifferentialBounded(t *testing.T) {
	runCorpus(t, 1000, 10, 15)
}

// TestDifferentialExtended is the larger corpus, skipped under -short.
func TestDifferentialExtended(t *testing.T) {
	if testing.Short() {
		t.Skip("extended differential corpus skipped in -short mode")
	}
	runCorpus(t, 5000, 40, 25)
}

// runLiveCorpus checks numTrials live-mutation trials of batchesPer
// rounds each: every round is one (graph, mutation batch, pattern)
// triple whose hybrid and WCO counts on the live snapshot must equal the
// BJ reference on a from-scratch rebuild of the same logical graph.
func runLiveCorpus(t *testing.T, firstSeed int64, numTrials, batchesPer int) {
	t.Helper()
	checked, skipped := 0, 0
	for i := 0; i < numTrials; i++ {
		seed := firstSeed + int64(i)
		results, err := RunLiveTrial(seed, batchesPer)
		if err != nil {
			t.Fatalf("live trial seed %d: %v", seed, err)
		}
		for _, res := range results {
			if res.Skipped {
				skipped++
				continue
			}
			checked++
			if res.Got != res.Want {
				t.Errorf("seed %d: %s plan of %q on live snapshot counted %d, rebuild reference %d",
					seed, res.PlanKind, res.Pattern, res.Got, res.Want)
			}
			if res.GotWCO != res.Want {
				t.Errorf("seed %d: WCO plan of %q on live snapshot counted %d, rebuild reference %d",
					seed, res.Pattern, res.GotWCO, res.Want)
			}
		}
	}
	total := numTrials * batchesPer
	if skipped > total/2 {
		t.Errorf("%d/%d live triples skipped on the reference budget; corpus too thin", skipped, total)
	}
	t.Logf("live corpus: %d triples checked, %d skipped", checked, skipped)
}

// TestDifferentialLiveBounded is the always-on mutation corpus.
func TestDifferentialLiveBounded(t *testing.T) {
	runLiveCorpus(t, 9000, 12, 2)
}

// TestDifferentialLiveExtended covers >= 200 (graph, mutation batch,
// pattern) triples; skipped under -short, run with -race in CI.
func TestDifferentialLiveExtended(t *testing.T) {
	if testing.Short() {
		t.Skip("extended live-mutation corpus skipped in -short mode")
	}
	runLiveCorpus(t, 12000, 110, 2)
}

// TestDifferentialSnapshotIsolation checks that a query started before
// a mutation batch never observes it: a Match over the asymmetric
// triangles of a K4 applies a triangle-adding batch from inside its
// callback, and the enumeration must still deliver exactly the
// pre-mutation matches while the next query sees the new triangle.
func TestDifferentialSnapshotIsolation(t *testing.T) {
	b := graphflow.NewBuilder(4)
	for i := uint32(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(i, j, 0)
		}
	}
	db, err := b.Open(&graphflow.Options{CatalogueZ: 50, CatalogueH: 2, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	const tri = "a->b, b->c, a->c"
	before, err := db.Count(tri, nil)
	if err != nil {
		t.Fatal(err)
	}
	if before != 4 {
		t.Fatalf("K4 asymmetric triangles = %d, want 4", before)
	}

	rows := int64(0)
	mutated := false
	err = db.Match(tri, func(map[string]uint32) bool {
		rows++
		if !mutated {
			mutated = true
			// Add a disjoint triangle on three fresh vertices mid-query.
			if _, err := db.Apply(graphflow.Batch{
				AddVertices: []uint16{0, 0, 0},
				AddEdges: []graphflow.EdgeOp{
					{Src: 4, Dst: 5, Label: 0},
					{Src: 5, Dst: 6, Label: 0},
					{Src: 4, Dst: 6, Label: 0},
				},
			}); err != nil {
				t.Errorf("mid-query Apply: %v", err)
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows != before {
		t.Fatalf("query running across the batch saw %d matches, want the pre-mutation %d", rows, before)
	}
	after, err := db.Count(tri, nil)
	if err != nil {
		t.Fatal(err)
	}
	if after != before+1 {
		t.Fatalf("post-mutation count = %d, want %d", after, before+1)
	}
}

// TestDifferentialBatchSizes runs the random (graph, pattern) corpus
// through the batch-size matrix: every entry must produce the reference
// matcher's count (sequential and parallel) and sorted tuple set at
// batch sizes {1, 3, 64, 1024}.
func TestDifferentialBatchSizes(t *testing.T) {
	numGraphs, patternsPer := 6, 8
	if testing.Short() {
		numGraphs, patternsPer = 3, 5
	}
	for gi := 0; gi < numGraphs; gi++ {
		seed := int64(30000 + gi)
		g := GenGraph(seed)
		db, err := OpenDB(g)
		if err != nil {
			t.Fatalf("graph seed %d: %v", seed, err)
		}
		rng := rand.New(rand.NewSource(seed * 31337))
		for pi := 0; pi < patternsPer; pi++ {
			if err := CompareBatchMatrix(db, g, GenPattern(rng)); err != nil {
				t.Errorf("graph seed %d pattern %d: %v", seed, pi, err)
			}
		}
	}
}

// TestDifferentialFactorized sweeps factorized star-suffix execution
// against the reference matcher: identical full counts with
// factorization on and off, exact Limit caps under Workers=4 (the
// shared-budget product claiming), and identical sorted tuple sets from
// the lazy unfold. The corpus mixes random patterns (some with star
// suffixes, some without) with fixed star-heavy shapes where whole
// suffixes factorize.
func TestDifferentialFactorized(t *testing.T) {
	numGraphs, patternsPer := 5, 6
	if testing.Short() {
		numGraphs, patternsPer = 3, 4
	}
	// Star-heavy fixed shapes: a 3-leaf star, a triangle with two leaves
	// hanging off it, and a two-hop path fanning into a 2-leaf star.
	stars := []string{
		"a->b, a->c, a->d",
		"a->b, b->c, a->c, a->d, c->e",
		"a->b, b->c, c->d, c->e",
	}
	for gi := 0; gi < numGraphs; gi++ {
		seed := int64(40000 + gi)
		g := GenGraph(seed)
		db, err := OpenDB(g)
		if err != nil {
			t.Fatalf("graph seed %d: %v", seed, err)
		}
		for si, s := range stars {
			q, err := query.Parse(s)
			if err != nil {
				t.Fatalf("star %d: %v", si, err)
			}
			if err := CompareFactorized(db, g, q); err != nil {
				t.Errorf("graph seed %d star %d: %v", seed, si, err)
			}
		}
		rng := rand.New(rand.NewSource(seed * 48611))
		for pi := 0; pi < patternsPer; pi++ {
			if err := CompareFactorized(db, g, GenPattern(rng)); err != nil {
				t.Errorf("graph seed %d pattern %d: %v", seed, pi, err)
			}
		}
	}
}

// TestDifferentialFactorizedLive runs the factorized sweep across live
// mutation batches: after each batch the factorized counts and caps on
// the live snapshot must agree with the reference matcher on a
// from-scratch rebuild of the same logical graph.
func TestDifferentialFactorizedLive(t *testing.T) {
	numTrials, batchesPer := 4, 2
	if testing.Short() {
		numTrials = 2
	}
	for i := 0; i < numTrials; i++ {
		seed := int64(46000 + i)
		rng := rand.New(rand.NewSource(seed))
		g := GenGraph(seed)
		db, err := OpenLiveDB(g, []int{10, -1}[rng.Intn(2)])
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sh := NewShadow(g)
		for b := 0; b < batchesPer; b++ {
			batch := GenBatch(rng, sh)
			if _, err := db.Apply(batch); err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, b, err)
			}
			sh.Apply(batch)
			if err := CompareFactorized(db, sh.Build(), GenPattern(rng)); err != nil {
				t.Errorf("seed %d batch %d: %v", seed, b, err)
			}
		}
		db.WaitCompaction()
	}
}

// TestDifferentialBatchLimits is the Limit cap regression: at
// every batch size, with Workers > 1, Count with a Limit and Match with a
// Limit must deliver exactly the capped number of results — never
// limit±overshoot from racing batch flushes; so must the reference count
// (BatchSize -1), which has no Match. The triangle
// runs as a WCO chain; the second pattern, a 6-cycle, is one the
// optimizer joins by hash on some corpus graphs, where the limit sizes
// the driver pipeline's batches and must leave the build side whole.
func TestDifferentialBatchLimits(t *testing.T) {
	for _, tc := range []struct {
		pattern  string
		hashJoin bool
	}{
		{"a->b, b->c, a->c", false},
		{"a->b, b->c, c->d, d->e, e->f, f->a", true},
	} {
		// Deterministically pick the first corpus graph with enough matches
		// for the caps to bite and the plan shape the case is about.
		var db *graphflow.DB
		var full int64
		for seed := int64(424242); seed < 424262 && db == nil; seed++ {
			d, err := OpenDB(GenGraph(seed))
			if err != nil {
				t.Fatal(err)
			}
			pq, err := d.Prepare(tc.pattern)
			if err != nil {
				t.Fatal(err)
			}
			if (pq.PlanKind() != "wco") != tc.hashJoin {
				continue
			}
			if full, err = pq.Count(&graphflow.QueryOptions{BatchSize: -1}); err != nil {
				t.Fatal(err)
			}
			if full >= 20 {
				db = d
			}
		}
		if db == nil {
			t.Fatalf("no corpus graph in the seed window has >= 20 matches of %q under a plan with hashJoin=%v", tc.pattern, tc.hashJoin)
		}
		// -1 is the reference count, 0 the engine's own choice: the
		// adaptive size, which follows the limit.
		sizes := append([]int{-1, 0}, BatchSizes...)
		for _, bs := range sizes {
			for _, limit := range []int64{1, 5, full - 1, full + 50} {
				wantN := limit
				if limit > full {
					wantN = full
				}
				opts := &graphflow.QueryOptions{BatchSize: bs, Workers: 4, Limit: limit}
				n, err := db.Count(tc.pattern, opts)
				if err != nil {
					t.Fatal(err)
				}
				if n != wantN {
					t.Errorf("%q bs=%d limit=%d: Count = %d, want %d", tc.pattern, bs, limit, n, wantN)
				}
				if bs < 0 {
					continue
				}
				delivered := int64(0)
				err = db.Match(tc.pattern, func(map[string]uint32) bool {
					delivered++
					return true
				}, opts)
				if err != nil {
					t.Fatal(err)
				}
				if delivered != wantN {
					t.Errorf("%q bs=%d limit=%d: Match delivered %d rows, want %d", tc.pattern, bs, limit, delivered, wantN)
				}
			}
		}
	}
}

// TestDifferentialCarriedSets runs the dense-pattern family — k-cliques,
// cliques minus an edge, cliques with pendant leaves, uniform and mixed
// edge directions — through CompareCarried on unlabelled graphs and on
// 2 vertex × 3 edge label graphs (where a same-slot stage with another
// target or edge label must not inherit), on the static store and on a
// live overlay after mutation batches. The last two graphs of the corpus are
// run-shaped (GenRunGraph): carried runs of one and two rows in turn,
// runs cut by a batch end and resumed from the next batch's headSet, a
// hub-sized partner in the middle of a run. Wrongly carried, stale or
// mis-sliced sets surface as count, limit or row-set mismatches against
// the reference matcher, which shares no code with the engine.
func TestDifferentialCarriedSets(t *testing.T) {
	numGraphs, patternsPer := 6, 3
	if testing.Short() {
		numGraphs, patternsPer = 4, 2
	}
	var carried int64
	for gi := 0; gi < numGraphs; gi++ {
		seed := int64(52000 + gi)
		labelled := gi%2 == 1
		g := corpusGraph(gi, numGraphs, seed, labelled)
		rng := rand.New(rand.NewSource(seed * 15485863))
		static, err := OpenDB(g)
		if err != nil {
			t.Fatalf("graph seed %d: %v", seed, err)
		}
		// No compaction: every read after the batches goes through the
		// overlay's merged neighbor runs.
		live, err := OpenLiveDB(g, -1)
		if err != nil {
			t.Fatalf("graph seed %d (live): %v", seed, err)
		}
		sh := NewShadow(g)
		for b := 0; b < 2; b++ {
			batch := GenBatch(rng, sh)
			if _, err := live.Apply(batch); err != nil {
				t.Fatalf("graph seed %d batch %d: %v", seed, b, err)
			}
			sh.Apply(batch)
		}
		rebuilt := sh.Build()
		for pi := 0; pi < patternsPer; pi++ {
			q := GenDensePattern(rng, labelled)
			for name, db := range map[string]refDB{"static": {static, g}, "live": {live, rebuilt}} {
				n, _, err := CompareCarried(db.db, db.ref, q)
				if err != nil {
					t.Errorf("graph seed %d %s pattern %d: %v", seed, name, pi, err)
				}
				carried += n
			}
		}

	}
	if carried == 0 {
		t.Error("no intersection of the whole corpus was seeded with a carried set; the family no longer exercises the path")
	}
	t.Logf("corpus carried %d extension sets", carried)
}

// refDB is a DB under test and the graph its answers are held to: the
// graph it was opened over, or a from-scratch rebuild of a live DB's
// shadow.
type refDB struct {
	db  *graphflow.DB
	ref graph.View
}

// corpusGraph is graph gi of a dense-pattern corpus of n: dense random
// graphs, then two run-shaped ones.
func corpusGraph(gi, n int, seed int64, labelled bool) *graph.Graph {
	if gi >= n-2 {
		return GenRunGraph(seed, labelled)
	}
	return GenDenseGraph(seed, labelled)
}

// denseBatch appends three vertices and wires each to about a third of
// the shadow's vertices in both directions, then deletes a handful of
// existing edges: unlike GenBatch's sprinkle, enough for the appended
// vertices (IDs beyond the base graph, adjacency wholly in the overlay)
// to sit in triangles and cliques, and for many base vertices to become
// overlay-resident.
func denseBatch(rng *rand.Rand, sh *Shadow, labelled bool) graphflow.Batch {
	var b graphflow.Batch
	vLabels, eLabels := 1, 1
	if labelled {
		vLabels, eLabels = 2, 3
	}
	n := len(sh.VLabels)
	for i := 0; i < 3; i++ {
		b.AddVertices = append(b.AddVertices, uint16(rng.Intn(vLabels)))
		v := uint32(n + i)
		for u := 0; u < n+i; u++ {
			if rng.Intn(3) == 0 {
				b.AddEdges = append(b.AddEdges, graphflow.EdgeOp{Src: v, Dst: uint32(u), Label: uint16(rng.Intn(eLabels))})
			}
			if rng.Intn(3) == 0 {
				b.AddEdges = append(b.AddEdges, graphflow.EdgeOp{Src: uint32(u), Dst: v, Label: uint16(rng.Intn(eLabels))})
			}
		}
	}
	existing := sh.sortedEdges()
	for i := 0; i < 10 && len(existing) > 0; i++ {
		e := existing[rng.Intn(len(existing))]
		b.DeleteEdges = append(b.DeleteEdges, graphflow.EdgeOp{Src: uint32(e.Src), Dst: uint32(e.Dst), Label: uint16(e.Label)})
	}
	return b
}

// TestDifferentialPinnedOperands sweeps the family the pinned operands
// target (GenPinnedPattern: triangle, diamond with and without chord,
// k-cliques 4..6 whole and minus an edge, triangle with leaves, bowtie;
// mixed directions; 2 × 3 labels and wildcard edge labels) through
// CompareCarried — the optimizer's plan and the WCO chain, batch sizes
// 1/3/64/1024 so that prefix runs and carried runs are cut by batch
// boundaries in every way, Workers 1 and 4, factorization on and off, the
// cache (and with it the pinning) off, exact Limits and full row sets,
// all against the reference matcher — on the static store and on a
// live overlay that has taken two random batches and one that appends vertices
// into the dense part of the graph (no compaction: lists come from the
// overlay's merged runs, IDs beyond the base graph reach the bitmap). The
// last two graphs of the corpus are run-shaped (GenRunGraph): scan runs
// of one and two rows in turn, a run longer than the mid batch size, a
// hub-sized partner past the pin cut-off in the middle of a run, and — on
// the labelled one — shared operands that are empty; every exact Limit
// unwinds the pipeline inside a run and the next query reuses its
// workers. TestDifferentialPinnedPastCutoff holds the hub-sized partner
// to the reference on a plan that is sure to meet it, and internal/exec's
// TestRunBoundaries holds the same shapes to the per-row path's counters.
func TestDifferentialPinnedOperands(t *testing.T) {
	numGraphs, patternsPer := 6, 3
	if testing.Short() {
		numGraphs, patternsPer = 4, 2
	}
	const refBudget = 20_000 // matches; denser draws are redrawn
	var pinned, wildcards int64
	for gi := 0; gi < numGraphs; gi++ {
		seed := int64(53000 + gi)
		labelled := gi%2 == 1
		g := corpusGraph(gi, numGraphs, seed, labelled)
		rng := rand.New(rand.NewSource(seed * 15485863))
		static, err := OpenDB(g)
		if err != nil {
			t.Fatalf("graph seed %d: %v", seed, err)
		}
		live, err := OpenLiveDB(g, -1)
		if err != nil {
			t.Fatalf("graph seed %d (live): %v", seed, err)
		}
		sh := NewShadow(g)
		for b := 0; b < 3; b++ {
			batch := GenBatch(rng, sh)
			if b == 2 {
				batch = denseBatch(rng, sh, labelled)
			}
			if _, err := live.Apply(batch); err != nil {
				t.Fatalf("graph seed %d batch %d: %v", seed, b, err)
			}
			sh.Apply(batch)
		}
		rebuilt := sh.Build()
		for pi := 0; pi < patternsPer; {
			q := GenPinnedPattern(rng, labelled)
			if n, err := live.Count(q.String(), &graphflow.QueryOptions{Limit: refBudget + 1}); err != nil {
				t.Fatalf("graph seed %d: sizing %q: %v", seed, q, err)
			} else if n > refBudget {
				continue
			}
			pi++
			if q.Edges[0].Label == 0xFFFF {
				wildcards++
			}
			for name, db := range map[string]refDB{"static": {static, g}, "live": {live, rebuilt}} {
				_, n, err := CompareCarried(db.db, db.ref, q)
				if err != nil {
					t.Errorf("graph seed %d %s pattern %d: %v", seed, name, pi, err)
				}
				pinned += n
			}
		}

	}
	if pinned == 0 {
		t.Error("no intersection of the whole corpus swept a pinned operand's bitmap; the family no longer exercises the path")
	}
	if wildcards == 0 {
		t.Error("no wildcard-label pattern was drawn; the reader-buffer lists went untested")
	}
	t.Logf("corpus dispatched %d pinned probes; %d wildcard patterns", pinned, wildcards)
}

// TestDifferentialPinnedPastCutoff meets, on purpose, the row a run
// hands back from the pinned sweep to the gallop: on the unlabelled
// run-shaped graphs of the pinned corpus, the triangle chain a, b, c
// scans each vertex's out-edges as a run that pins N(a), and at every
// HubEvery-th periphery vertex one row's partner is the hub's list,
// graph.PinCutoff times N(a)'s length or more. The optimizer may order
// the triangle another way, so the chain is compiled here. Counts at
// every run batch size must be the reference matcher's, on the static
// graph and behind a live overlay whose appended vertices the hub points
// at.
func TestDifferentialPinnedPastCutoff(t *testing.T) {
	q := query.MustParse("a->b, b->c, a->c")
	ext, err := plan.NewExtend(q, plan.NewScan(q, q.Edges[0]), 2)
	if err != nil {
		t.Fatal(err)
	}
	p := &plan.Plan{Query: q, Root: ext}
	for _, seed := range []int64{53002, 53004} {
		g := GenRunGraph(seed, false)
		hub, past := graph.VertexID(0), 0
		for a := graph.VertexID(0); int(a) < g.NumVertices(); a++ {
			if g.OutDegree(a) > g.OutDegree(hub) {
				hub = a
			}
			na := g.Neighbors(a, graph.Forward, 0, 0, nil)
			for _, b := range na {
				if len(na) >= 2 && g.OutDegree(b) >= graph.PinCutoff*len(na) {
					past++
				}
			}
		}
		if past == 0 {
			t.Fatalf("graph seed %d: no scan run has a partner past the pin cut-off", seed)
		}
		db, err := live.Open(g, live.Config{CompactThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		n := graph.VertexID(g.NumVertices())
		batch := live.Batch{AddVertices: []graph.Label{0, 0}}
		for v := n; v < n+2; v++ {
			batch.AddEdges = append(batch.AddEdges, live.EdgeOp{Src: hub, Dst: v}, live.EdgeOp{Src: v, Dst: hub}, live.EdgeOp{Src: v, Dst: v ^ 1})
		}
		if _, err := db.Apply(batch); err != nil {
			t.Fatal(err)
		}
		for name, view := range map[string]graph.View{"static": g, "live": db.Snapshot()} {
			cp, err := exec.Compile(view, p)
			if err != nil {
				t.Fatal(err)
			}
			want := query.RefCount(view, q)
			for _, bs := range RunBatchSizes {
				got, prof, err := cp.CountCtx(context.Background(), exec.RunConfig{BatchSize: bs})
				if err != nil || got != want {
					t.Errorf("graph seed %d %s batch %d: count %d, %v; reference %d", seed, name, bs, got, err, want)
				}
				if bs > 1 && (prof.Kernels.PinnedProbe == 0 || prof.Kernels.Gallop == 0) {
					t.Errorf("graph seed %d %s batch %d: kernels %+v, want pinned sweeps and gallops", seed, name, bs, prof.Kernels)
				}
			}
		}
	}
}

// TestDifferentialAdaptive puts adaptive evaluation through the matrix
// the fixed engine answers to (CompareAdaptive), over the corpora that
// stress what a routed chain is made of: the dense family (cliques and
// chorded cycles: carried sets, several orderings per chain), the pinned
// family (operands that repeat over a run, wildcard labels) and the
// factorized family's star-heavy shapes on its sparser graphs (orderings
// ending in tails of different lengths) — the first two on the static
// store and on a live overlay that has taken two random batches and a
// dense one.
func TestDifferentialAdaptive(t *testing.T) {
	numGraphs := 4
	if testing.Short() {
		numGraphs = 2
	}
	const refBudget = 4_000 // matches; denser draws are redrawn
	stars := []string{
		"a->b, b->c, a->c, a->d, c->e",
		"a->b, b->c, c->d, c->e",
	}
	var reroutes int64
	for gi := 0; gi < numGraphs; gi++ {
		seed := int64(54000 + gi)
		labelled := gi%2 == 1
		g := GenDenseGraph(seed, labelled)
		rng := rand.New(rand.NewSource(seed * 15485863))
		static, err := OpenDB(g)
		if err != nil {
			t.Fatalf("graph seed %d: %v", seed, err)
		}
		live, err := OpenLiveDB(g, -1)
		if err != nil {
			t.Fatalf("graph seed %d (live): %v", seed, err)
		}
		sh := NewShadow(g)
		for b := 0; b < 3; b++ {
			batch := GenBatch(rng, sh)
			if b == 2 {
				batch = denseBatch(rng, sh, labelled)
			}
			if _, err := live.Apply(batch); err != nil {
				t.Fatalf("graph seed %d batch %d: %v", seed, b, err)
			}
			sh.Apply(batch)
		}
		rebuilt := sh.Build()
		draw := func(gen func(*rand.Rand, bool) *query.Graph) *query.Graph {
			for {
				q := gen(rng, labelled)
				n, err := live.Count(q.String(), &graphflow.QueryOptions{Limit: refBudget + 1})
				if err != nil {
					t.Fatalf("graph seed %d: sizing %q: %v", seed, q, err)
				}
				if n <= refBudget {
					return q
				}
			}
		}
		corpus := []*query.Graph{draw(GenDensePattern), draw(GenPinnedPattern)}
		for pi, q := range corpus {
			for name, db := range map[string]refDB{"static": {static, g}, "live": {live, rebuilt}} {
				n, err := CompareAdaptive(db.db, db.ref, q)
				if err != nil {
					t.Errorf("graph seed %d %s pattern %d: %v", seed, name, pi, err)
				}
				reroutes += n
			}
		}

	}
	for gi := 0; gi < numGraphs; gi++ {
		seed := int64(40000 + gi)
		g := GenGraph(seed)
		db, err := OpenDB(g)
		if err != nil {
			t.Fatalf("graph seed %d: %v", seed, err)
		}
		for si, s := range stars {
			n, err := CompareAdaptive(db, g, query.MustParse(s))
			if err != nil {
				t.Errorf("graph seed %d star %d: %v", seed, si, err)
			}
			reroutes += n
		}
	}
	if reroutes == 0 {
		t.Error("no run of tuples of the whole corpus left its plan's own ordering; the routers had nothing to route")
	}
	t.Logf("corpus rerouted %d runs", reroutes)
}
