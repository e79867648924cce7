package exec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"graphflow/internal/datagen"
	"graphflow/internal/graph"
	"graphflow/internal/plan"
	"graphflow/internal/query"
)

// cliqueQuery returns the k-clique with every edge oriented low→high
// ("a->b, a->c, b->c, ..."), the shape whose WCO chain nests each
// stage's descriptors inside the next one's.
func cliqueQuery(k int) *query.Graph {
	q := &query.Graph{}
	for v := 0; v < k; v++ {
		q.Vertices = append(q.Vertices, query.Vertex{Name: string(rune('a' + v))})
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			q.Edges = append(q.Edges, query.Edge{From: i, To: j})
		}
	}
	return q
}

// chainOrder is the identity vertex order 0..k-1.
func chainOrder(k int) []int {
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	return order
}

// denseRandomGraph draws every ordered vertex pair as an edge with
// probability p: small, but thick with cliques.
func denseRandomGraph(seed int64, n int, p float64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < p {
				b.AddEdge(graph.VertexID(u), graph.VertexID(v), 0)
			}
		}
	}
	return b.MustBuild()
}

// stageMarks lists, per pipeline stage of cp's driver, whether it
// was compiled as inheriting and as publishing.
func stageMarks(cp *CompiledPlan) (inherits, publishes []bool) {
	for _, st := range cp.driver().stages {
		es, ok := st.(*extendSpec)
		inherits = append(inherits, ok && es.covered != 0)
		publishes = append(publishes, ok && es.publishes)
	}
	return inherits, publishes
}

// hasInheritingStage reports whether any pipeline of cp carries a set.
func hasInheritingStage(cp *CompiledPlan) bool {
	for _, pipe := range cp.pipes {
		for _, st := range pipe.stages {
			if es, ok := st.(*extendSpec); ok && es.covered != 0 {
				return true
			}
		}
	}
	return false
}

// TestCarriedMarking pins the compile-time rule: a stage inherits exactly
// when the stage right below it is an E/I operator whose descriptors —
// same slot, direction and edge label — are a subset of size >= 2 of its
// own and both target the same vertex label.
func TestCarriedMarking(t *testing.T) {
	g := smallRandomGraph(3, 40, 4)
	labelled := func(q *query.Graph, v int, l graph.Label) *query.Graph {
		q.Vertices[v].Label = l
		return q
	}
	cases := []struct {
		name     string
		q        *query.Graph
		order    []int
		inherits []bool
	}{
		{"clique4", cliqueQuery(4), chainOrder(4), []bool{false, true}},
		// Chains of any depth: each stage inherits from the one before.
		{"clique5", cliqueQuery(5), chainOrder(5), []bool{false, true, true}},
		{"clique6", cliqueQuery(6), chainOrder(6), []bool{false, true, true, true}},
		// Equal descriptor sets (two vertices closed over the same pair).
		{"equalSets", query.MustParse("a->b, a->c, b->c, a->d, b->d"), chainOrder(4), []bool{false, true}},
		// d reads {b, c}: overlaps the upstream's {a, b} without containing it.
		{"notSubset", query.Q4(), chainOrder(4), []bool{false, false}},
		// The upstream reads a single list: below the size floor.
		{"sizeOne", query.MustParse("a->b, a->c, a->d, c->d"), chainOrder(4), []bool{false, false}},
		// Same slots, but d->b reads b's backward list where c used b's forward one.
		{"direction", query.MustParse("a->b, a->c, b->c, a->d, d->b, c->d"), chainOrder(4), []bool{false, false}},
		// Same slots and directions, different target vertex label.
		{"targetLabel", labelled(cliqueQuery(4), 3, 1), chainOrder(4), []bool{false, false}},
		// The mismatch only breaks the link it sits on.
		{"targetLabelMid", labelled(labelled(cliqueQuery(5), 3, 1), 4, 1), chainOrder(5), []bool{false, false, true}},
	}
	// Same slots and directions, different edge label on one shared list.
	edgeLabel := cliqueQuery(4)
	for i, e := range edgeLabel.Edges {
		if e.From == 0 && e.To == 3 {
			edgeLabel.Edges[i].Label = 1
		}
	}
	cases = append(cases, struct {
		name     string
		q        *query.Graph
		order    []int
		inherits []bool
	}{"edgeLabel", edgeLabel, chainOrder(4), []bool{false, false}})

	for _, tc := range cases {
		cp := Must(t, g, buildWCO(t, tc.q, tc.order))
		inherits, publishes := stageMarks(cp)
		for i, want := range tc.inherits {
			if inherits[i] != want {
				t.Errorf("%s: stage %d inherits = %v, want %v", tc.name, i, inherits[i], want)
			}
			// A stage publishes exactly when the next one inherits.
			wantPub := i+1 < len(tc.inherits) && tc.inherits[i+1]
			if publishes[i] != wantPub {
				t.Errorf("%s: stage %d publishes = %v, want %v", tc.name, i, publishes[i], wantPub)
			}
		}
	}

	// A hash probe between two E/I stages breaks the chain even when the
	// lower stage's descriptors are a subset of the upper one's: the probe
	// reorders and multiplies rows, so no run table survives it.
	q := query.MustParse("a->b, a->c, b->c, c->d, c->e, d->e, a->f, b->f, c->f")
	left := buildWCO(t, q, []int{0, 1, 2}).Root
	right := buildWCO(t, q, []int{2, 3, 4}).Root
	hj, err := plan.NewHashJoin(right, left)
	if err != nil {
		t.Fatal(err)
	}
	top, err := plan.NewExtend(q, hj, 5)
	if err != nil {
		t.Fatal(err)
	}
	cp := Must(t, g, &plan.Plan{Query: q, Root: top})
	if hasInheritingStage(cp) {
		t.Errorf("extend above a hash probe compiled as inheriting:\n%s", (&plan.Plan{Query: q, Root: top}).Describe())
	}
}

// carriedCliqueICost is the independent model of clique4's i-cost under
// carried sets, computed straight off the adjacency lists: the c stage
// reads N(a) and N(b) per scanned edge; the d stage, per (a, b, c) row,
// reads the carried S = N(a)∩N(b) and N(c). uncarried is Equation 1's
// number, every stage reading all of its lists; rows is the number of
// (a, b, c) rows — the intersections the d stage seeds from upstream.
func carriedCliqueICost(g *graph.Graph) (icost, uncarried, rows int64) {
	nbrs := func(v graph.VertexID) []graph.VertexID {
		return g.Neighbors(v, graph.Forward, 0, 0, nil)
	}
	for a := 0; a < g.NumVertices(); a++ {
		na := append([]graph.VertexID(nil), nbrs(graph.VertexID(a))...)
		for _, b := range na {
			nb := append([]graph.VertexID(nil), nbrs(b)...)
			icost += int64(len(na) + len(nb))
			uncarried += int64(len(na) + len(nb))
			s := graph.Intersect(na, nb, nil)
			for _, c := range s {
				nc := nbrs(c)
				icost += int64(len(s) + len(nc))
				uncarried += int64(len(na) + len(nb) + len(nc))
				rows++
			}
		}
	}
	return icost, uncarried, rows
}

// TestCarriedCliqueICost pins what Profile.ICost means once a stage
// inherits: the sizes of the lists actually accessed, |S| plus the new
// lists — identical whichever consumer of extendState runs the last
// stage (plain batch stage, count-only fast path, factorized tail), at
// every batch size (runs split across batches), and back to Equation 1's
// number with the cache off. Intermediate rows and cache hits are those
// of the plain chain at one row a batch.
func TestCarriedCliqueICost(t *testing.T) {
	g := denseRandomGraph(21, 48, 0.25)
	p := buildWCO(t, cliqueQuery(4), chainOrder(4))
	cp := Must(t, g, p)
	wantICost, uncarriedICost, rows := carriedCliqueICost(g)
	wantN := refCount(g, p)
	_, rowProf, err := cp.CountCtx(context.Background(), RunConfig{BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if wantN == 0 || rows == 0 {
		t.Fatal("graph has no 4-cliques; test is vacuous")
	}
	if wantICost >= uncarriedICost {
		t.Fatalf("model: carried i-cost %d not below uncarried %d", wantICost, uncarriedICost)
	}
	for _, bs := range batchSizesUnderTest {
		for _, cfg := range []RunConfig{
			{BatchSize: bs, NoFactorize: true},
			{BatchSize: bs},
		} {
			n, prof, err := cp.CountCtx(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if n != wantN {
				t.Errorf("cfg=%+v: count %d, oracle %d", cfg, n, wantN)
			}
			if prof.ICost != wantICost || prof.CarriedSets != rows {
				t.Errorf("cfg=%+v: i-cost %d carried %d, want %d and %d", cfg, prof.ICost, prof.CarriedSets, wantICost, rows)
			}
			if prof.Intermediate != rowProf.Intermediate || prof.CacheHits != rowProf.CacheHits {
				t.Errorf("cfg=%+v: intermediate %d hits %d, at one row a batch %d and %d", cfg,
					prof.Intermediate, prof.CacheHits, rowProf.Intermediate, rowProf.CacheHits)
			}
			cfg.DisableCache = true
			_, off, err := cp.CountCtx(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if off.ICost != uncarriedICost || off.CarriedSets != 0 {
				t.Errorf("cfg=%+v: cache-off i-cost %d carried %d, want Equation 1's %d and 0", cfg, off.ICost, off.CarriedSets, uncarriedICost)
			}
		}
	}
	// Analyze attributes the carried intersections to the inheriting
	// operator and renders it distinctly.
	ops, _, err := cp.AnalyzeCtx(context.Background(), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if ops.CarriedSets != rows || ops.Children[0].CarriedSets != 0 {
		t.Errorf("analyze: carried %d on the top operator, %d below; want %d and 0", ops.CarriedSets, ops.Children[0].CarriedSets, rows)
	}
	if want := "EXTEND(a4 <- ↑∩(2,fwd))"; ops.Operator != want {
		t.Errorf("analyze: top operator renders %q, want %q", ops.Operator, want)
	}
}

// TestCarriedLimitsAndRows drives the carried path through every way a
// run can end early or unfold: exact CountUpToCtx caps (factorized budget
// and emit-counted), RunCtx stops, and full row sets, over cliques
// with and without pendant leaves, at every batch size.
func TestCarriedLimitsAndRows(t *testing.T) {
	g := denseRandomGraph(22, 40, 0.3)
	shapes := map[string]*plan.Plan{
		"clique4": buildWCO(t, cliqueQuery(4), chainOrder(4)),
		"clique5": buildWCO(t, cliqueQuery(5), chainOrder(5)),
		// Both leaves close over (a, b, c): a two-leaf tail whose second
		// leaf inherits from the first.
		"twinLeaves": buildWCO(t, query.MustParse("a->b, a->c, b->c, a->d, b->d, c->d, a->e, b->e, c->e"), chainOrder(5)),
		// A pendant leaf after the clique: the tail holds an inheriting
		// leaf and a plain one.
		"pendant": buildWCO(t, query.MustParse("a->b, a->c, b->c, a->d, b->d, c->d, a->e"), chainOrder(5)),
	}
	for name, p := range shapes {
		cp := Must(t, g, p)
		if !hasInheritingStage(cp) {
			t.Fatalf("%s: no inheriting stage", name)
		}
		want := refCount(g, p)
		if want < 4 {
			t.Fatalf("%s: only %d matches; test is vacuous", name, want)
		}
		wantTuples := refTuples(g, p)
		for _, bs := range batchSizesUnderTest {
			for _, off := range []bool{false, true} {
				cfg := RunConfig{BatchSize: bs, NoFactorize: off}
				got := sortedTuples(t, cp, cfg)
				if len(got) != len(wantTuples) {
					t.Fatalf("%s bs=%d nofactorize=%v: %d tuples, oracle %d", name, bs, off, len(got), len(wantTuples))
				}
				for i := range got {
					if got[i] != wantTuples[i] {
						t.Fatalf("%s bs=%d nofactorize=%v: tuple[%d] = %s, oracle %s", name, bs, off, i, got[i], wantTuples[i])
					}
				}
				for _, workers := range []int{1, 4} {
					cfg.Workers = workers
					for _, limit := range []int64{1, 2, want / 2, want - 1, want, want + 9} {
						wantLim := min(limit, want)
						n, _, err := cp.CountUpToCtx(context.Background(), cfg, limit)
						if err != nil {
							t.Fatal(err)
						}
						if n != wantLim {
							t.Errorf("%s bs=%d nofactorize=%v workers=%d: CountUpToCtx(%d) = %d, want %d", name, bs, off, workers, limit, n, wantLim)
						}
					}
					n, _, err := cp.CountCtx(context.Background(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					if n != want {
						t.Errorf("%s bs=%d nofactorize=%v workers=%d: count %d, oracle %d", name, bs, off, workers, n, want)
					}
				}
			}
		}
	}
}

// BenchmarkCliqueCarried compares the engine variants on the shapes the
// carried extension sets target — the 4- and 5-clique over the skewed web
// graph of the deep-pipeline benchmarks: the vectorized engine with the
// sets carried (plain chain and factorized tail), the same with the
// intersection cache off (every stage re-reads all its lists).
func BenchmarkCliqueCarried(b *testing.B) {
	g := datagen.Web(datagen.WebConfig{N: 2500, OutDeg: 8, Copy: 0.6, Seed: 5})
	for _, k := range []int{4, 5} {
		cp := Must(b, g, buildWCO(b, cliqueQuery(k), chainOrder(k)))
		for _, v := range []struct {
			name string
			cfg  RunConfig
		}{
			{"batch", RunConfig{NoFactorize: true}},
			{"factorized", RunConfig{}},
			{"batch-nocache", RunConfig{NoFactorize: true, DisableCache: true}},
		} {
			b.Run(fmt.Sprintf("clique%d/%s", k, v.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := cp.CountCtx(context.Background(), v.cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
