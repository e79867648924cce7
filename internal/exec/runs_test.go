package exec

import (
	"context"
	"slices"
	"sync/atomic"
	"testing"

	"graphflow/internal/datagen"
	"graphflow/internal/graph"
	"graphflow/internal/live"
	"graphflow/internal/plan"
	"graphflow/internal/query"
)

// runBatchSizes cut prefix runs every way a batch end can: never inside a
// batch (1), after every second and third row, inside medium runs (64)
// and only inside the hub's (1024).
var runBatchSizes = []int{1, 2, 3, 64, 1024}

// runShapesGraph is datagen.RunShapes sized for these tests: a core of 24
// with a second edge label beside the first on some pairs, the hub (24)
// pointing at all 1 124 other vertices — one run longer than any batch —
// and every sixty-fourth periphery vertex with the hub mid-list.
func runShapesGraph() *graph.Graph {
	return datagen.RunShapes(datagen.RunShapesConfig{
		Core: 24, Periphery: 1100, P: 0.35, P1: 0.15, HubEvery: 64, Seed: 61,
	})
}

// runShapesOverlay is runShapesGraph behind a live overlay that has
// appended three vertices — IDs beyond the base universe, which a pinned
// list carries into the bitmap — wired into the core, the hub and each
// other, and deleted a few base edges.
func runShapesOverlay(t testing.TB) graph.View {
	g := runShapesGraph()
	db, err := live.Open(g, live.Config{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	n := graph.VertexID(g.NumVertices())
	batch := live.Batch{AddVertices: []graph.Label{0, 0, 0}}
	for i := graph.VertexID(0); i < 3; i++ {
		v := n + i
		batch.AddEdges = append(batch.AddEdges,
			live.EdgeOp{Src: 24, Dst: v}, live.EdgeOp{Src: v, Dst: 24}, live.EdgeOp{Src: v, Dst: n + (i+1)%3})
		for c := graph.VertexID(0); c < 24; c += 2 + i {
			batch.AddEdges = append(batch.AddEdges, live.EdgeOp{Src: v, Dst: c}, live.EdgeOp{Src: c + 1, Dst: v})
		}
	}
	batch.DeleteEdges = []live.EdgeOp{{Src: 24, Dst: 30}, {Src: 25, Dst: 0}, {Src: 3, Dst: 28}}
	if _, err := db.Apply(batch); err != nil {
		t.Fatal(err)
	}
	return db.Snapshot()
}

// runShapePlans are WCO chains whose stages meet those runs in every
// role: fed by the scan, by a carried set (cut into headSet and tailSet
// at the small batch sizes), as a factorized tail's first leaf, with a
// full-key repeat inside a pinned run, with a pinned list that is empty,
// with three operands (the sweep, then a fold), through a router's
// orderings — and one over wildcard edge labels, whose multiset lists
// must never take the run path.
func runShapePlans(t testing.TB) map[string]*plan.Plan {
	wild := query.MustParse("a->b, a->c, b->c")
	for i := range wild.Edges {
		wild.Edges[i].Label = graph.WildcardLabel
	}
	return map[string]*plan.Plan{
		"triangle": buildWCO(t, query.Q1(), chainOrder(3)),
		"clique4":  buildWCO(t, cliqueQuery(4), chainOrder(4)),
		"clique5":  buildWCO(t, cliqueQuery(5), chainOrder(5)),
		"triLeaf":  buildWCO(t, query.MustParse("a->b, b->c, a->c, b->d"), chainOrder(4)),
		// d <- N(a) ∩ N(b) under rows (a, b, c) that differ in c alone.
		"keyRepeat": buildWCO(t, query.MustParse("a->b, b->c, a->d, b->d"), chainOrder(4)),
		// c <- N₁(a) ∩ N₀(b): most scan vertices have no label-1 edge.
		"emptyOperand": buildWCO(t, query.MustParse("a-[0]->b, a-[1]->c, b-[0]->c"), chainOrder(3)),
		// d <- N(a) ∩ N(b) ∩ N(c) above a one-descriptor stage: no carried
		// set, and a fold.
		"threeWay": buildWCO(t, query.MustParse("a->b, b->c, a->d, b->d, c->d"), chainOrder(4)),
		"wildcard": buildWCO(t, wild, chainOrder(3)),
	}
}

// TestRunBoundaries holds the run path to its two references on
// runShapesGraph, at every batch size, on the CSR store and on a live
// overlay: counts, exact limits and row sets are the reference matcher's
// (query.RefCount, query.RefEnumerate), and CacheHits, ICost,
// Intermediate and CarriedSets are those of the same engine forced down
// the per-row general path (forceGeneralPath) — the run changes what an
// intersection costs, never what is computed or how it is accounted. The
// wildcard shape's count and rows are instead those of the per-row path
// at one row a batch: its lists are multisets, the kernels keep the
// smaller multiplicity, and no reference defines that count. A limit unwinds the pipeline mid-run; the count after
// it runs on the same pooled worker and must find it unpinned.
func TestRunBoundaries(t *testing.T) {
	sizes := runBatchSizes
	if testing.Short() {
		sizes = []int{2, 64}
	}
	for vname, view := range map[string]graph.View{"static": runShapesGraph(), "overlay": runShapesOverlay(t)} {
		for name, p := range runShapePlans(t) {
			where := vname + " " + name
			cp, err := Compile(view, p)
			if err != nil {
				t.Fatal(err)
			}
			general, err := Compile(view, p)
			if err != nil {
				t.Fatal(err)
			}
			forceGeneralPath(general)
			want := refCount(view, p)
			if name == "wildcard" {
				if want, _, err = general.CountCtx(context.Background(), RunConfig{BatchSize: 1}); err != nil {
					t.Fatal(err)
				}
			}
			if want == 0 {
				t.Fatalf("%s: no matches; the row is vacuous", where)
			}
			var wantRows []string
			switch {
			case want > 40000:
			case name == "wildcard":
				wantRows = sortedTuples(t, general, RunConfig{BatchSize: 1})
			default:
				wantRows = refTuples(view, p)
			}
			for _, bs := range sizes {
				for _, limit := range []int64{1, want / 2, want - 1} {
					if limit < 1 {
						continue
					}
					for _, cfg := range []RunConfig{{BatchSize: bs, NoFactorize: true}, {BatchSize: bs}} {
						if n, _, err := cp.CountUpToCtx(context.Background(), cfg, limit); err != nil || n != limit {
							t.Fatalf("%s %+v: CountUpToCtx(%d) = %d, %v", where, cfg, limit, n, err)
						}
					}
				}
				for _, cfg := range []RunConfig{
					{BatchSize: bs, NoFactorize: true},
					{BatchSize: bs},
					{BatchSize: bs, Workers: 4},
					{BatchSize: bs, NoFactorize: true, Workers: 4},
				} {
					n, prof, err := cp.CountCtx(context.Background(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					nGen, ref, err := general.CountCtx(context.Background(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					if n != want || nGen != want {
						t.Errorf("%s %+v: count %d, per-row path %d, reference %d", where, cfg, n, nGen, want)
					}
					if ref.Kernels.PinnedProbe != 0 {
						t.Errorf("%s %+v: the forced per-row path dispatched %d pinned probes", where, cfg, ref.Kernels.PinnedProbe)
					}
					if pinned := prof.Kernels.PinnedProbe > 0; pinned != (bs > 1 && name != "wildcard") {
						t.Errorf("%s %+v: %d pinned probes", where, cfg, prof.Kernels.PinnedProbe)
					}
					if cfg.Workers > 1 {
						continue // which rows meet in one worker's batch is the scheduler's
					}
					if prof.CacheHits != ref.CacheHits || prof.ICost != ref.ICost || prof.Intermediate != ref.Intermediate || prof.CarriedSets != ref.CarriedSets {
						t.Errorf("%s %+v: hits %d i-cost %d intermediate %d carried %d; per-row path %d, %d, %d, %d", where, cfg,
							prof.CacheHits, prof.ICost, prof.Intermediate, prof.CarriedSets,
							ref.CacheHits, ref.ICost, ref.Intermediate, ref.CarriedSets)
					}
					if bs > 1 && name != "wildcard" && name != "threeWay" && prof.Kernels.Merge >= ref.Kernels.Merge {
						t.Errorf("%s %+v: %d merges, per-row path %d: the runs swept nothing a merge would have", where, cfg, prof.Kernels.Merge, ref.Kernels.Merge)
					}
				}
				if wantRows == nil {
					continue
				}
				for _, off := range []bool{false, true} {
					if rows := sortedTuples(t, cp, RunConfig{BatchSize: bs, NoFactorize: off}); !slices.Equal(rows, wantRows) {
						t.Errorf("%s bs=%d factorization off=%v: %d rows differ from the reference's %d", where, bs, off, len(rows), len(wantRows))
					}
				}
			}
		}
	}
}

// sweepRule counts, over the rows of one stage's input in arrival order,
// the intersections the run rule sweeps: a row's shared operand is
// shared[i] (rows with equal key[i] share it, consecutively), its one
// other operand has partner[i] elements, and batch rows make an input
// batch. It is the run counter of the pin-once guards, written from the
// rule's description, not its code: a stretch of minRunRows rows or more
// with one key inside one batch is a run, and a row of a run is swept
// unless its partner is graph.PinCutoff times the shared list's length.
func sweepRule(key []uint64, shared, partner []int, batch int) (runs, sweeps int64) {
	for lo := 0; lo < len(key); {
		hi := lo + 1
		for hi < len(key) && key[hi] == key[lo] && hi/batch == lo/batch {
			hi++
		}
		if hi-lo >= minRunRows {
			runs++
			for i := lo; i < hi; i++ {
				if partner[i] < graph.PinCutoff*shared[lo] {
					sweeps++
				}
			}
		}
		lo = hi
	}
	return runs, sweeps
}

// scanStageSweeps applies sweepRule to the first E/I stage of a triangle
// chain over g: its input is the scan's (a, b) rows, N(a) is shared.
func scanStageSweeps(g *graph.Graph, batch int) (runs, sweeps int64) {
	var key []uint64
	var shared, partner []int
	for a := 0; a < g.NumVertices(); a++ {
		na := g.Neighbors(graph.VertexID(a), graph.Forward, 0, 0, nil)
		for _, b := range na {
			key = append(key, uint64(a))
			shared = append(shared, len(na))
			partner = append(partner, g.Degree(b, graph.Forward, 0, 0))
		}
	}
	return sweepRule(key, shared, partner, batch)
}

// carriedStageSweeps applies sweepRule to the 4-clique chain's last stage
// over g: its input is the (a, b, c) rows the stage below fans out — in
// batches of its own, whatever the scan's were — and S = N(a) ∩ N(b), the
// set it carries down, is shared by the rows of one (a, b).
func carriedStageSweeps(g *graph.Graph, batch int) (runs, sweeps int64) {
	var key []uint64
	var shared, partner []int
	for a := 0; a < g.NumVertices(); a++ {
		na := g.Neighbors(graph.VertexID(a), graph.Forward, 0, 0, nil)
		for _, b := range na {
			s := graph.Intersect(na, g.Neighbors(b, graph.Forward, 0, 0, nil), nil)
			for _, c := range s {
				key = append(key, uint64(a)<<32|uint64(b))
				shared = append(shared, len(s))
				partner = append(partner, g.Degree(c, graph.Forward, 0, 0))
			}
		}
	}
	return sweepRule(key, shared, partner, batch)
}

// FuzzExtendRuns drives the vectorized E/I and hash-probe stages with
// fuzzer-chosen input: a small graph with two vertex and two edge labels,
// one E/I operator of one to three descriptors over a two-column input
// (labels exact or wildcard, either direction) and, optionally, an
// operator above it that inherits its extension set — or, as the other
// operator shape, a hash probe of a fuzzed build table (key of one or two
// vertices, one to three appended columns) with, optionally, a
// one-descriptor E/I operator above it — then rows with adversarial run
// structure — a row repeats its predecessor, keeps one column of it, or
// starts over — fed in input batches of a fuzzed size into stages with a
// fuzzed output batch size. The rows that come out, in order, and the
// hit, probe, intermediate and match counts must be those of a naive
// evaluator written here from graph.View.Neighbors and the build rows,
// which takes the rows one at a time; the i-cost too when nothing is
// carried; the match count of a pure count (the last stage counting
// instead of writing) too; and every counter must equal the same stages'
// forced down the per-row path.
func FuzzExtendRuns(f *testing.F) {
	f.Add([]byte{7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32})
	f.Add([]byte{0x83, 0x40, 0x11, 0, 0, 0, 1, 1, 1, 2, 2, 2, 0xff, 0xfe, 0xfd, 9, 9, 9, 9, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3})
	f.Add([]byte{0xc2, 0x05, 0x33, 200, 100, 50, 25, 12, 6, 3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1})
	// Probes: a one-vertex key behind three appended columns, and a
	// two-vertex key under an E/I stage, both over key runs cut by batch
	// ends.
	f.Add([]byte("AX00100000001000100090000000000000000000000000000000000000000120! "))
	f.Add([]byte("acA001000000019900990000000000000000000000B0000000\xe3AAA0000\xc7A0000000"))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		label := func(b int) graph.Label {
			if b%3 == 2 {
				return graph.WildcardLabel
			}
			return graph.Label(b % 3)
		}
		// The operators.
		head := next()
		var stages []stageSpec
		var join *plan.HashJoin
		var keySlots []int
		buildWidth := 0
		if probe := head&0xc0 == 0x40; probe {
			b := next()
			keyWidth, appended := 1+b&1, 1+b>>1%3
			buildWidth = keyWidth + appended
			keySlots = []int{0, 1}[:keyWidth]
			if b&0x08 != 0 {
				for i := range keySlots {
					keySlots[i] = appended + i
				}
			}
			spec := &probeSpec{op: &plan.HashJoin{}, probeSlots: []int{b >> 4 & 1, 1 - b>>4&1}[:keyWidth]}
			for slot := 0; slot < buildWidth; slot++ {
				if !slices.Contains(keySlots, slot) {
					spec.appendIdx = append(spec.appendIdx, slot)
				}
			}
			join = spec.op
			stages = append(stages, spec)
			if b&0x20 != 0 {
				d := next()
				stages = appendExtend(stages, &plan.Extend{TargetLabel: label(head >> 2),
					Descriptors: []plan.Descriptor{{TupleIdx: d % (2 + appended), Dir: graph.Direction(d >> 4 & 1), EdgeLabel: label(d >> 5)}}})
			}
		} else {
			descs := make([]plan.Descriptor, 1+head%3)
			for i := range descs {
				b := next()
				descs[i] = plan.Descriptor{TupleIdx: b & 1, Dir: graph.Direction(b >> 1 & 1), EdgeLabel: label(b >> 2)}
			}
			lower := &plan.Extend{Descriptors: descs, TargetLabel: label(head >> 2)}
			stages = appendExtend(nil, lower)
			if head&0x80 != 0 {
				b := next()
				upper := &plan.Extend{Child: lower, TargetLabel: lower.TargetLabel,
					Descriptors: append(slices.Clone(descs), plan.Descriptor{TupleIdx: b % 3, Dir: graph.Direction(b >> 2 & 1), EdgeLabel: label(b >> 3)})}
				stages = appendExtend(stages, upper)
			}
		}
		inBatch, outBatch := 1+next()%9, 1+next()%9
		// The graph.
		n := 6 + next()%12
		gb := graph.NewBuilder(n)
		for v := 0; v < n; v++ {
			gb.SetVertexLabel(graph.VertexID(v), graph.Label(next()&1))
		}
		// The build table: up to 24 rows over the first six vertices, so most
		// probe rows find their key, in runs of one build row or several.
		var table *hashTable
		var buildRows [][]graph.VertexID
		if join != nil {
			for i := 1 + next()%24; i > 0; i-- {
				row := make([]graph.VertexID, buildWidth)
				for c := range row {
					row[c] = graph.VertexID(next() % 6)
				}
				buildRows = append(buildRows, row)
			}
			table, _ = buildTables(t, keySlots, buildWidth, inBatch, [][][]graph.VertexID{buildRows})
		}
		for e := 4 * n; e > 0 && len(data) > 24; e-- {
			b := next()
			gb.AddEdge(graph.VertexID(b%n), graph.VertexID(next()%n), graph.Label(b>>7))
		}
		g := gb.MustBuild()
		// The rows.
		var rows [][2]graph.VertexID
		for len(data) > 0 && len(rows) < 64 {
			b := next()
			row := [2]graph.VertexID{graph.VertexID(b % n), graph.VertexID(b / 16 % n)}
			if k := len(rows); k > 0 {
				switch b >> 6 {
				case 1:
					row = rows[k-1]
				case 2:
					row[0] = rows[k-1][0]
				case 3:
					row[1] = rows[k-1][1]
				}
			}
			rows = append(rows, row)
		}

		cp := &CompiledPlan{graph: g}
		pipe := func(stages []stageSpec) *compiledPipeline {
			width := 2
			for _, st := range stages {
				if ps, ok := st.(*probeSpec); ok {
					width += len(ps.appendIdx)
				} else {
					width++
				}
			}
			return &compiledPipeline{scan: &plan.Scan{}, stages: stages, outWidth: width, tail: &tailSpec{cut: len(stages)}}
		}
		// run feeds the rows to stages; count runs a pure count (no emit).
		run := func(stages []stageSpec, count bool) (out [][]graph.VertexID, prof Profile) {
			rc := &runContext{ctx: context.Background(), cp: cp, batch: outBatch,
				tables: map[*plan.HashJoin]*hashTable{join: table}}
			var stopped atomic.Bool
			emit := func(tu []graph.VertexID) bool {
				out = append(out, slices.Clone(tu))
				return true
			}
			if count {
				emit = nil
			}
			w := newWorker(rc, pipe(stages), true, emit, &stopped, nil)
			in := newTupleBatch(2, inBatch)
			for lo := 0; lo < len(rows); lo += inBatch {
				in.clear()
				for _, row := range rows[lo:min(lo+inBatch, len(rows))] {
					in.cols[0] = append(in.cols[0], row[0])
					in.cols[1] = append(in.cols[1], row[1])
					in.n++
				}
				w.bstages[0].pushBatch(w, in)
			}
			w.flushBatches()
			for _, st := range w.bstages {
				if es, ok := st.(*batchExtendState); ok && es.run.end != 0 {
					t.Fatalf("a stage is still in a run after its last batch")
				}
			}
			return out, w.profile
		}
		want, naive := naiveStages(g, stages, keySlots, buildRows, rows)
		got, prof := run(stages, false)
		if !slices.EqualFunc(got, want, func(a, b []graph.VertexID) bool { return slices.Equal(a, b) }) {
			t.Fatalf("stages %v over %v (batches of %d in, %d out) emitted\n%v\nrow by row\n%v", stages[len(stages)-1].planNode(), rows, inBatch, outBatch, got, want)
		}
		if prof.CacheHits != naive.CacheHits || prof.ProbedTuples != naive.ProbedTuples || prof.Intermediate != naive.Intermediate ||
			prof.Matches != int64(len(want)) || (prof.CarriedSets == 0 && prof.ICost != naive.ICost) {
			t.Fatalf("hits %d probed %d intermediate %d matches %d i-cost %d; row by row %d, %d, %d, %d, %d",
				prof.CacheHits, prof.ProbedTuples, prof.Intermediate, prof.Matches, prof.ICost,
				naive.CacheHits, naive.ProbedTuples, naive.Intermediate, len(want), naive.ICost)
		}
		if _, counted := run(stages, true); counted.Matches != int64(len(want)) || counted.ProbedTuples != naive.ProbedTuples {
			t.Fatalf("a pure count matched %d rows and probed %d; row by row %d, %d", counted.Matches, counted.ProbedTuples, len(want), naive.ProbedTuples)
		}
		var perRow []stageSpec
		for _, st := range stages {
			if es, ok := st.(*extendSpec); ok {
				spec := *es
				spec.sets = false
				st = &spec
			}
			perRow = append(perRow, st)
		}
		_, ref := run(perRow, false)
		if prof.CacheHits != ref.CacheHits || prof.ICost != ref.ICost || prof.Intermediate != ref.Intermediate || prof.CarriedSets != ref.CarriedSets {
			t.Fatalf("hits %d i-cost %d intermediate %d carried %d; per-row path %d, %d, %d, %d",
				prof.CacheHits, prof.ICost, prof.Intermediate, prof.CarriedSets, ref.CacheHits, ref.ICost, ref.Intermediate, ref.CarriedSets)
		}
	})
}

// naiveStages is FuzzExtendRuns' reference: it takes rows through stages
// one row at a time, straight from g's Neighbors lists and the build
// rows, sharing no code with the stages under test. An E/I stage's
// extension set is its descriptors' lists intersected as multisets — a
// wildcard edge label's list holds a neighbour once per label, and an ID
// survives as often as the list holding it least often — and a probe
// stage appends every build row whose key columns (keySlots) equal the
// row's probe columns, in build order. It returns the rows the last stage
// produces and the counters the stages must report: Intermediate (rows
// the stages below the last produce), ProbedTuples, CacheHits (an E/I row
// whose descriptor key repeats the key of the row before it at that
// stage) and ICost (the lists' sizes, for every row that is not a hit).
func naiveStages(g graph.View, stages []stageSpec, keySlots []int, buildRows [][]graph.VertexID, rows [][2]graph.VertexID) ([][]graph.VertexID, Profile) {
	var prof Profile
	in := make([][]graph.VertexID, len(rows))
	for i, r := range rows {
		in[i] = []graph.VertexID{r[0], r[1]}
	}
	for si, st := range stages {
		var out [][]graph.VertexID
		var last []graph.VertexID
		for _, row := range in {
			switch s := st.(type) {
			case *probeSpec:
				prof.ProbedTuples++
			build:
				for _, b := range buildRows {
					for i, sl := range s.probeSlots {
						if b[keySlots[i]] != row[sl] {
							continue build
						}
					}
					o := slices.Clone(row)
					for _, c := range s.appendIdx {
						o = append(o, b[c])
					}
					out = append(out, o)
				}
			case *extendSpec:
				op := s.op
				key := make([]graph.VertexID, len(op.Descriptors))
				lists := make([][]graph.VertexID, len(op.Descriptors))
				cost := int64(0)
				for i, d := range op.Descriptors {
					key[i] = row[d.TupleIdx]
					lists[i] = g.Neighbors(key[i], d.Dir, d.EdgeLabel, op.TargetLabel, nil)
					cost += int64(len(lists[i]))
				}
				if last != nil && slices.Equal(key, last) {
					prof.CacheHits++
				} else {
					prof.ICost += cost
				}
				last = key
				for _, x := range multisetIntersect(lists) {
					out = append(out, append(slices.Clone(row), x))
				}
			}
		}
		if si < len(stages)-1 {
			prof.Intermediate += int64(len(out))
		}
		in = out
	}
	return in, prof
}

// multisetIntersect intersects sorted lists that may repeat an ID: each
// ID of the first list survives as often as the list holding it least
// often holds it, in ascending order.
func multisetIntersect(lists [][]graph.VertexID) []graph.VertexID {
	var out []graph.VertexID
	first := lists[0]
	for i := 0; i < len(first); {
		x, j := first[i], i
		for j < len(first) && first[j] == x {
			j++
		}
		m := j - i
		for _, l := range lists[1:] {
			m = min(m, countOf(l, x))
		}
		for ; m > 0; m-- {
			out = append(out, x)
		}
		i = j
	}
	return out
}

// countOf is the number of times x occurs in l.
func countOf(l []graph.VertexID, x graph.VertexID) int {
	n := 0
	for _, y := range l {
		if y == x {
			n++
		}
	}
	return n
}
