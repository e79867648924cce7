package catalogue

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"graphflow/internal/datagen"
	"graphflow/internal/graph"
	"graphflow/internal/live"
	"graphflow/internal/query"
)

func buildSmall(t testing.TB, g *graph.Graph, h, z int) *Catalogue {
	t.Helper()
	return Build(g, Config{H: h, Z: z, MaxInstances: 500, Seed: 42})
}

func TestScanCountsExact(t *testing.T) {
	b := graph.NewBuilder(4)
	b.SetVertexLabel(3, 1)
	b.AddEdge(0, 1, 0)
	b.AddEdge(1, 2, 0)
	b.AddEdge(2, 3, 1)
	g := b.MustBuild()
	c := buildSmall(t, g, 2, 100)
	if got := c.scanCount(0, 0, 0); got != 2 {
		t.Errorf("scanCount(0,0,0) = %v, want 2", got)
	}
	if got := c.scanCount(1, 0, 1); got != 1 {
		t.Errorf("scanCount(1,0,1) = %v, want 1", got)
	}
	if got := c.scanCount(1, 1, 1); got != 0 {
		t.Errorf("scanCount(1,1,1) = %v, want 0", got)
	}
}

func TestDefaultListSize(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 0)
	b.AddEdge(0, 2, 0)
	b.AddEdge(0, 3, 0)
	b.AddEdge(1, 2, 0)
	g := b.MustBuild()
	c := buildSmall(t, g, 2, 100)
	if got := c.defaultListSize(graph.Forward, 0, 0); got != 1.0 {
		t.Errorf("avg fwd = %v, want 1.0 (4 edges / 4 vertices)", got)
	}
	if got := c.defaultListSize(graph.Backward, 0, 0); got != 1.0 {
		t.Errorf("avg bwd = %v, want 1.0", got)
	}
}

// triangleGraph builds a graph with a known number of asymmetric-triangle
// extensions: every edge u->v extends to exactly the common forward
// neighbours.
func triangleGraph() *graph.Graph {
	b := graph.NewBuilder(5)
	// Edges 0->1, 0->2, 1->2, 1->3, 0->3: edge 0->1 has fwd∩fwd = {2,3}.
	b.AddEdge(0, 1, 0)
	b.AddEdge(0, 2, 0)
	b.AddEdge(1, 2, 0)
	b.AddEdge(1, 3, 0)
	b.AddEdge(0, 3, 0)
	return b.MustBuild()
}

func TestExtensionStatsTriangleClose(t *testing.T) {
	g := triangleGraph()
	c := buildSmall(t, g, 3, 100)
	// Extension: single edge a1->a2 extended by a3 with a1->a3, a2->a3.
	base := query.MustParse("a1->a2")
	edges := []query.Edge{{From: 0, To: 2}, {From: 1, To: 2}}
	sizes, mu, found := c.ExtensionStats(base, edges, 0)
	if !found {
		t.Fatal("triangle-close entry missing")
	}
	if len(sizes) != 2 {
		t.Fatalf("sizes = %v", sizes)
	}
	// Exact check: all 5 edges sampled (z=100 > m). Per-edge triangle
	// counts: 0->1:{2,3}=2, 0->2:{}=0 (2 has no fwd), 1->2:0, 1->3:0,
	// 0->3:0. µ = 2/5.
	if math.Abs(mu-0.4) > 1e-9 {
		t.Errorf("µ = %v, want 0.4", mu)
	}
}

func TestEntryKeyAlignment(t *testing.T) {
	// The same extension expressed with the two descriptor orders must hit
	// the same entry with consistently permuted sizes.
	base := query.MustParse("a1->a2")
	e1 := []query.Edge{{From: 0, To: 2}, {From: 1, To: 2}}
	e2 := []query.Edge{{From: 1, To: 2}, {From: 0, To: 2}}
	k1, r1 := (Extension{Base: base, Edges: e1, TargetLabel: 0}).Key()
	k2, r2 := (Extension{Base: base, Edges: e2, TargetLabel: 0}).Key()
	if k1 != k2 {
		t.Fatalf("keys differ:\n%s\n%s", k1, k2)
	}
	if r1[0] != r2[1] || r1[1] != r2[0] {
		t.Errorf("ranks not consistently permuted: %v vs %v", r1, r2)
	}
}

func TestKeyDistinguishesDirections(t *testing.T) {
	base := query.MustParse("a1->a2")
	fwd := []query.Edge{{From: 0, To: 2}, {From: 1, To: 2}} // asymmetric close
	cyc := []query.Edge{{From: 2, To: 0}, {From: 1, To: 2}} // cyclic close
	k1, _ := (Extension{Base: base, Edges: fwd, TargetLabel: 0}).Key()
	k2, _ := (Extension{Base: base, Edges: cyc, TargetLabel: 0}).Key()
	if k1 == k2 {
		t.Error("different directions produced the same key")
	}
}

func TestKeyDistinguishesTarget(t *testing.T) {
	// Extending a path by the middle vs the end must differ even when the
	// resulting shapes are isomorphic as unmarked graphs.
	pathBase := query.MustParse("a1->a2, a2->a3")
	endExt := []query.Edge{{From: 2, To: 3}}
	k1, _ := (Extension{Base: pathBase, Edges: endExt, TargetLabel: 0}).Key()

	edgeBase := query.MustParse("a1->a2")
	midExt := []query.Edge{{From: 1, To: 2}}
	k2, _ := (Extension{Base: edgeBase, Edges: midExt, TargetLabel: 0}).Key()
	if k1 == k2 {
		t.Error("keys must encode the base subquery, not just the result")
	}
}

func TestEstimateCardinalityExactOnEdges(t *testing.T) {
	g := datagen.Amazon(1)
	c := buildSmall(t, g, 3, 2000)
	// Single-edge query: estimate must be the exact edge count.
	q := query.MustParse("a->b")
	got := c.EstimateCardinality(q)
	if got != float64(g.NumEdges()) {
		t.Errorf("edge cardinality = %v, want %d", got, g.NumEdges())
	}
}

func TestEstimateCardinalityTriangleReasonable(t *testing.T) {
	g := datagen.Epinions(1)
	c := buildSmall(t, g, 3, 2000)
	q := query.Q1()
	truth := float64(query.RefCount(g, q))
	est := c.EstimateCardinality(q)
	if truth == 0 {
		t.Skip("no triangles in dataset")
	}
	qerr := math.Max(est/truth, truth/est)
	if est <= 0 || qerr > 50 {
		t.Errorf("triangle estimate %v vs truth %v (q-error %.1f) unreasonable", est, truth, qerr)
	}
}

func TestMissingEntryFallbackLargerThanH(t *testing.T) {
	g := datagen.Amazon(1)
	c := buildSmall(t, g, 2, 500) // H=2: 3-vertex bases are beyond H
	base := query.Q1()            // triangle base (3 vertices > H)
	edges := []query.Edge{{From: 0, To: 3}, {From: 1, To: 3}, {From: 2, To: 3}}
	sizes, mu, _ := c.ExtensionStats(base, edges, 0)
	if len(sizes) != 3 {
		t.Fatalf("sizes = %v", sizes)
	}
	if mu < 0 || math.IsNaN(mu) || math.IsInf(mu, 0) {
		t.Errorf("reduced µ = %v", mu)
	}
	for _, s := range sizes {
		if s < 0 || math.IsNaN(s) {
			t.Errorf("bad size %v", s)
		}
	}
}

func TestDefaultStatsWhenUnsampled(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 0)
	b.AddEdge(1, 2, 0)
	g := b.MustBuild()
	c := buildSmall(t, g, 2, 10)
	// Ask for an extension pattern absent from the tiny graph: cyclic close.
	base := query.MustParse("a1->a2")
	edges := []query.Edge{{From: 2, To: 0}, {From: 1, To: 2}}
	sizes, mu, found := c.ExtensionStats(base, edges, 0)
	if found {
		// It may legitimately be found with µ=0 if lists were non-empty.
		if mu != 0 {
			t.Errorf("cyclic close on a path should have µ=0, got %v", mu)
		}
		return
	}
	if len(sizes) != 2 || mu < 0 {
		t.Errorf("default stats broken: %v %v", sizes, mu)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g := datagen.Amazon(1)
	c := buildSmall(t, g, 3, 500)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	c2, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if c2.Len() != c.Len() {
		t.Fatalf("entries lost: %d vs %d", c2.Len(), c.Len())
	}
	if c2.NumVertices != c.NumVertices || c2.Cfg != c.Cfg {
		t.Errorf("base stats lost")
	}
	for k, e := range c.All() {
		if e2, ok := c2.Lookup(k); !ok || !reflect.DeepEqual(e2, e) {
			t.Fatalf("entry %s = %+v (found %v) after the round trip, was %+v", k, e2, ok, e)
		}
	}
	for name, pair := range map[string][2]any{
		"edgeCount": {c2.edgeCount, c.edgeCount}, "fwdTotal": {c2.fwdTotal, c.fwdTotal},
		"bwdTotal": {c2.bwdTotal, c.bwdTotal}, "vertexCount": {c2.vertexCount, c.vertexCount},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Errorf("%s = %v after the round trip, was %v", name, pair[0], pair[1])
		}
	}
	// Same estimate after round trip.
	q := query.Q1()
	if a, b := c.EstimateCardinality(q), c2.EstimateCardinality(q); a != b {
		t.Errorf("estimates differ after round trip: %v vs %v", a, b)
	}
}

func TestMoreSamplesDontExplodeEntries(t *testing.T) {
	g := datagen.Google(1)
	small := Build(g, Config{H: 2, Z: 100, MaxInstances: 200, Seed: 1})
	big := Build(g, Config{H: 3, Z: 100, MaxInstances: 200, Seed: 1})
	if small.Len() == 0 || big.Len() == 0 {
		t.Fatal("empty catalogues")
	}
	if big.Len() < small.Len() {
		t.Errorf("larger H should produce at least as many entries: h2=%d h3=%d", small.Len(), big.Len())
	}
}

func TestLabeledCatalogue(t *testing.T) {
	g := datagen.Relabel(datagen.Amazon(1), 1, 3, 7)
	c := Build(g, Config{H: 2, Z: 500, MaxInstances: 300, Seed: 3})
	if c.Len() == 0 {
		t.Fatal("no entries for labeled graph")
	}
	// Scan counts must partition the edges across labels.
	var total float64
	for el := graph.Label(0); el < 3; el++ {
		total += c.scanCount(el, 0, 0)
	}
	if int(total) != g.NumEdges() {
		t.Errorf("label scan counts sum to %v, want %d", total, g.NumEdges())
	}
}

// TestBaseStatisticsKeyFormat pins the string keys the exact base
// statistics take in the JSON format of Save/Load (in memory they are
// typed) against a per-edge rendering on a graph with several vertex and
// edge labels.
func TestBaseStatisticsKeyFormat(t *testing.T) {
	g := datagen.Relabel(datagen.Epinions(1), 2, 3, 1)
	c := Build(g, Config{H: 1, Z: 10, Seed: 1})
	edges, fwd, bwd, vertices := map[string]int64{}, map[string]int64{}, map[string]int64{}, map[string]int64{}
	for v := 0; v < g.NumVertices(); v++ {
		vertices[fmt.Sprintf("%d", g.VertexLabel(graph.VertexID(v)))]++
	}
	g.Edges(func(src, dst graph.VertexID, el graph.Label) bool {
		sl, dl := g.VertexLabel(src), g.VertexLabel(dst)
		edges[fmt.Sprintf("%d/%d/%d", el, sl, dl)]++
		fwd[fmt.Sprintf("%d/%d", el, dl)]++
		bwd[fmt.Sprintf("%d/%d", el, sl)]++
		return true
	})
	if len(edges) != 12 || len(vertices) != 2 {
		t.Fatalf("graph not labelled as expected: %d edge-label triples, %d vertex labels", len(edges), len(vertices))
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	var f catalogueFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("saved catalogue is not JSON: %v", err)
	}
	for name, pair := range map[string][2]map[string]int64{
		"EdgeCount": {f.EdgeCount, edges}, "FwdTotal": {f.FwdTotal, fwd},
		"BwdTotal": {f.BwdTotal, bwd}, "VertexCount": {f.VertexCount, vertices},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Errorf("%s = %v, want %v", name, pair[0], pair[1])
		}
	}
}

// BenchmarkCatalogueBuild is what one statistics refresh costs: a full
// Build on Epinions under the repository benchmark's cold-plan labelling
// (two vertex labels by three edge labels). fetches/op is the Build's
// Neighbors calls, intersections/op its two-list intersections.
func BenchmarkCatalogueBuild(b *testing.B) {
	g := &countingView{View: datagen.Relabel(datagen.Epinions(1), 2, 3, 11)}
	b.ReportAllocs()
	var intersections int64
	for i := 0; i < b.N; i++ {
		bu := newBuilder(g, Config{H: 3, Z: 1000, Seed: 1}, runtime.GOMAXPROCS(0))
		bu.run()
		intersections += bu.intersections
	}
	b.ReportMetric(float64(g.calls.Load())/float64(b.N), "fetches/op")
	b.ReportMetric(float64(intersections)/float64(b.N), "intersections/op")
}

// countingView counts the Neighbors calls made through it.
type countingView struct {
	graph.View
	calls atomic.Int64
}

func (v *countingView) Neighbors(u graph.VertexID, dir graph.Direction, el, nl graph.Label, buf []graph.VertexID) []graph.VertexID {
	v.calls.Add(1)
	return v.View.Neighbors(u, dir, el, nl, buf)
}

// TestHighLabelsDoNotAliasTheTarget is the regression test for keys that
// marked the new vertex by OR-ing 0x4000 into its label: a base vertex
// labelled 0x4000|l was then indistinguishable from a target labelled l.
// Extending (a:0x4001 -> b:0) by t:1 through b's forward list and
// extending (b:0 -> y:0x4001) by t:1 through b's backward list both
// rendered as the path 0x4001 -> 0 -> 0x4001 and shared one entry.
func TestHighLabelsDoNotAliasTheTarget(t *testing.T) {
	const hi = graph.Label(0x4001)
	fwd := Extension{
		Base:        &query.Graph{Vertices: []query.Vertex{{Label: hi}, {Label: 0}}, Edges: []query.Edge{{From: 0, To: 1}}},
		Edges:       []query.Edge{{From: 1, To: 2}},
		TargetLabel: 1,
	}
	bwd := Extension{
		Base:        &query.Graph{Vertices: []query.Vertex{{Label: 0}, {Label: hi}}, Edges: []query.Edge{{From: 0, To: 1}}},
		Edges:       []query.Edge{{From: 2, To: 0}},
		TargetLabel: 1,
	}
	kf, _ := fwd.Key()
	kb, _ := bwd.Key()
	if kf == kb {
		t.Fatalf("non-isomorphic extensions share the key %s", kf)
	}

	// A graph holding both: x:0x4001 -> m:0 -> y:0x4001, plus m -> p:1 (so
	// the forward extension finds one t) and q:1, r:1 -> m (so the backward
	// one finds two). Every edge is sampled, so the statistics are exact.
	b := graph.NewBuilder(0)
	x, m, y := b.AddVertex(hi), b.AddVertex(0), b.AddVertex(hi)
	p, q, r := b.AddVertex(1), b.AddVertex(1), b.AddVertex(1)
	for _, e := range [][2]graph.VertexID{{x, m}, {m, y}, {m, p}, {q, m}, {r, m}} {
		b.AddEdge(e[0], e[1], 0)
	}
	c := Build(b.MustBuild(), Config{H: 2, Z: 100, Seed: 1})
	ef, okf := c.Lookup(kf)
	eb, okb := c.Lookup(kb)
	if !okf || !okb {
		t.Fatalf("entries missing: forward %v, backward %v", okf, okb)
	}
	if ef.Mu != 1 || eb.Mu != 2 {
		t.Errorf("µ forward = %v (want 1), backward = %v (want 2): the extensions still share statistics", ef.Mu, eb.Mu)
	}
}

// TestBuildPinnedOnEpinions pins Build on the unlabelled Epinions graph —
// one label group — to the totals the string-keyed implementation
// produced.
func TestBuildPinnedOnEpinions(t *testing.T) {
	c := Build(datagen.Epinions(1), Config{H: 3, Z: 1000, Seed: 1})
	checkTotals(t, c, 572, 489957, 3899.58356089874, 88612.973018806486)
}

// TestBuildPinnedOnLabelledEpinions pins Build on the repository
// benchmark's cold-plan graph and options: six label groups, which the
// sampler queues largest first, so the work budget cuts the same
// patterns on every build. Two builds in one process save the same bytes.
// Each build fetches every (pattern, sampled instance, list slot) once,
// into the pattern's listTable, and every slot is read by some
// measurement, so the Neighbors calls are the tables' size; reading each
// measurement's lists itself, Build made 30 000 867, one per work unit.
// Each job with two or more edges intersects its parent's result with
// one more list, on the instances where both are non-empty: 491 989 two-list
// intersections, where intersecting every job's lists afresh made
// 3 348 887 k-way calls.
func TestBuildPinnedOnLabelledEpinions(t *testing.T) {
	g := &countingView{View: datagen.Relabel(datagen.Epinions(2), 2, 3, 11)}
	cfg := Config{H: 3, Z: 1000, Seed: 1}
	var saved [2]bytes.Buffer
	for i := range saved {
		g.calls.Store(0)
		c := Build(g, cfg)
		checkTotals(t, c, 25047, 6997965, 4224.8358768051839, 1617090.6378220529)
		if got, want := g.calls.Load(), int64(60828); got != want {
			t.Errorf("Build called Neighbors %d times, want %d", got, want)
		}
		if err := c.Save(&saved[i]); err != nil {
			t.Fatalf("Save: %v", err)
		}
	}
	if !bytes.Equal(saved[0].Bytes(), saved[1].Bytes()) {
		t.Errorf("two builds of one graph and config saved different catalogues (%d and %d bytes)", saved[0].Len(), saved[1].Len())
	}
	b := newBuilder(g, cfg, runtime.GOMAXPROCS(0))
	b.run()
	if got, want := b.intersections, int64(491989); got != want {
		t.Errorf("Build made %d two-list intersections, want %d", got, want)
	}
}

// TestBuildSameOnEveryWorkerCount: Build measures on every core, and the
// catalogue comes out the same on any number of workers — the same saved
// bytes and the same entry order as on one. The inputs cover the
// cold-plan pin, an unlabelled graph, a live snapshot read through its
// overlay, new instances carried across two levels (H 4), a work budget
// that runs out in the middle of a level, and a heavily labelled graph
// whose budget runs out in the middle of a pattern's jobs. No worker
// outlives its Build.
func TestBuildSameOnEveryWorkerCount(t *testing.T) {
	coldPlan := datagen.Relabel(datagen.Epinions(2), 2, 3, 11)
	cases := []struct {
		name   string
		g      graph.View
		cfg    Config
		budget int64 // 0 keeps maxWorkUnits
		check  func(*testing.T, *Catalogue)
		short  []int // the worker counts under -short, if not all
	}{
		{"cold-plan", coldPlan, Config{H: 3, Z: 1000, Seed: 1}, 0, func(t *testing.T, c *Catalogue) {
			checkTotals(t, c, 25047, 6997965, 4224.8358768051839, 1617090.6378220529)
		}, []int{8}},
		{"unlabelled", datagen.Epinions(1), Config{H: 3, Z: 1000, Seed: 1}, 0, func(t *testing.T, c *Catalogue) {
			checkTotals(t, c, 572, 489957, 3899.58356089874, 88612.973018806486)
		}, []int{1, 8}},
		// The budget keeps the number of entries, and so the time Save
		// takes, near cold-plan's.
		{"live snapshot", overlaidSnapshot(t), Config{H: 3, Z: 200, MaxInstances: 50, Seed: 2}, 1_000_000, nil, nil},
		// Label groups past MaxInstances, so the driver shuffles them.
		{"H 2", datagen.Relabel(datagen.Epinions(1), 2, 2, 5), Config{H: 2, Z: 300, MaxInstances: 20, Seed: 3}, 0, func(t *testing.T, c *Catalogue) {
			checkTotals(t, c, 1280, 25600, 1207.4500000000005, 25932.150000000085)
		}, nil},
		{"H 4", datagen.Epinions(1), Config{H: 4, Z: 40, MaxInstances: 10, Seed: 3}, 300_000, func(t *testing.T, c *Catalogue) {
			for k := range c.All() {
				if k[0]&0x7f == 5 { // the code's vertex count: a 4-vertex base and its target
					return
				}
			}
			t.Error("no entry extends a 4-vertex pattern")
		}, nil},
		{"budget runs out mid-level", coldPlan, Config{H: 3, Z: 1000, Seed: 1}, 200_000, nil, nil},
		// 16 vertex by 8 edge labels: 512 list slots per 2-vertex pattern,
		// over 10⁵ jobs per pattern, so its table's columns are read across
		// batches, and a budget that runs out among the first pattern's.
		{"heavily labelled", datagen.Relabel(datagen.Epinions(1), 16, 8, 5), Config{H: 3, Z: 1000, Seed: 4}, 300_000, nil, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want []byte
			var wantOrder []Key
			workers := []int{1, 2, 3, 8}
			if testing.Short() && tc.short != nil {
				workers = tc.short
			}
			for _, w := range workers {
				before := runtime.NumGoroutine()
				b := newBuilder(tc.g, tc.cfg, w)
				if tc.budget > 0 {
					b.budget = tc.budget
				}
				c := b.run()
				if tc.budget > 0 && b.work <= b.budget {
					t.Fatalf("%d workers: work %d never passed the budget %d", w, b.work, b.budget)
				}
				waitGoroutines(t, before)
				if tc.check != nil {
					tc.check(t, c)
				}
				var saved bytes.Buffer
				if err := c.Save(&saved); err != nil {
					t.Fatalf("Save: %v", err)
				}
				var order []Key
				for k := range c.All() {
					order = append(order, k)
				}
				if want == nil {
					want, wantOrder = saved.Bytes(), order
					continue
				}
				if !bytes.Equal(saved.Bytes(), want) {
					t.Errorf("%d workers saved %d bytes that differ from one worker's %d", w, saved.Len(), len(want))
				}
				if !slices.Equal(order, wantOrder) {
					t.Errorf("%d workers numbered the %d entries otherwise than one worker", w, len(order))
				}
			}
		})
	}
}

// overlaidSnapshot is a labelled live snapshot whose overlay appends
// vertices, adds edges and deletes some of the base's, so Build reads
// through the overlay rather than a CSR.
func overlaidSnapshot(t *testing.T) graph.View {
	t.Helper()
	base := datagen.Relabel(datagen.Epinions(1), 2, 3, 7)
	db, err := live.Open(base, live.Config{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	var batch live.Batch
	base.Edges(func(src, dst graph.VertexID, el graph.Label) bool {
		if src%5 == 0 {
			batch.DeleteEdges = append(batch.DeleteEdges, live.EdgeOp{Src: src, Dst: dst, Label: el})
		}
		return true
	})
	n := base.NumVertices()
	for i := range 100 {
		batch.AddVertices = append(batch.AddVertices, graph.Label(i%2))
	}
	rng := rand.New(rand.NewSource(9))
	for range 3000 {
		src, dst := graph.VertexID(rng.Intn(n+100)), graph.VertexID(rng.Intn(n+100))
		batch.AddEdges = append(batch.AddEdges, live.EdgeOp{Src: src, Dst: dst, Label: graph.Label(rng.Intn(3))})
	}
	res, err := db.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.AddedEdges == 0 || res.DeletedEdges == 0 {
		t.Fatalf("overlay added %d and deleted %d edges, want both", res.AddedEdges, res.DeletedEdges)
	}
	// A closed store's last snapshot stays readable.
	snap := db.Snapshot()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return snap
}

// waitGoroutines fails t unless the goroutine count is back to want
// within a second: a worker may still be returning when Build does.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Build, %d before", runtime.NumGoroutine(), want)
		}
	}
}

// TestCatalogueBytesPerEntry holds the flat layout to its size: a Build
// on the cold-plan graph retains at most 100 B per entry, measured as the
// live heap after it less the live heap before, and Bytes, which counts
// the table's arrays, agrees with that within 10 %.
func TestCatalogueBytesPerEntry(t *testing.T) {
	g := datagen.Relabel(datagen.Epinions(2), 2, 3, 11)
	live := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := live()
	c := Build(g, Config{H: 3, Z: 1000, Seed: 1})
	retained := live() - before
	perEntry := float64(retained) / float64(c.Len())
	t.Logf("%d entries: %d B retained (%.1f B/entry), Bytes() = %d (%.1f B/entry)",
		c.Len(), retained, perEntry, c.Bytes(), float64(c.Bytes())/float64(c.Len()))
	if perEntry > 100 {
		t.Errorf("a Build retains %.1f B per entry, want at most 100", perEntry)
	}
	if r := float64(c.Bytes()) / float64(retained); r < 0.9 || r > 1.1 {
		t.Errorf("Bytes() = %d against %d B retained: off by more than 10 %%", c.Bytes(), retained)
	}
	runtime.KeepAlive(g) // collected during the second reading, it would offset the catalogue
	runtime.KeepAlive(c)
}

// checkTotals compares a catalogue's entry count, Σsamples, Σµ and
// ΣListSizes with pinned values. Sums do not depend on the key format,
// nor on which of several automorphic canonical orderings a key
// computation settles on (that can only move a list size between two
// symmetric descriptors of one entry).
func checkTotals(t *testing.T, c *Catalogue, wantLen, wantSamples int, wantMu, wantLists float64) {
	t.Helper()
	var mus, lists []float64
	samples := 0
	for _, e := range c.All() {
		samples += e.Samples
		mus = append(mus, e.Mu)
		lists = append(lists, e.ListSizes...)
	}
	sum := func(xs []float64) float64 {
		sort.Float64s(xs) // a summation order independent of entry order
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s
	}
	if c.Len() != wantLen || samples != wantSamples {
		t.Errorf("Len = %d, Σsamples = %d; want %d, %d", c.Len(), samples, wantLen, wantSamples)
	}
	if got := sum(mus); math.Abs(got-wantMu) > 1e-9*wantMu {
		t.Errorf("Σµ = %.17g, want %.17g", got, wantMu)
	}
	if got := sum(lists); math.Abs(got-wantLists) > 1e-9*wantLists {
		t.Errorf("ΣListSizes = %.17g, want %.17g", got, wantLists)
	}
}

// TestLoadRefusesOtherVersions: a file from before the version field —
// string-rendered keys — is refused with the advice to rebuild.
func TestLoadRefusesOtherVersions(t *testing.T) {
	old := `{"config":{"H":3,"Z":1000,"MaxInstances":1000,"Seed":0},` +
		`"entries":{"v0:0;v1:0;v2:16384;e0>1:0;e1>2:0":{"lists":[4.5],"mu":4.5,"samples":1000}},` +
		`"numVertices":3000,"edgeCount":{"0/0/0":25565},"fwdTotal":{"0/0":25565},"bwdTotal":{"0/0":25565},"vertexCount":{"0":3000}}`
	_, err := Load(strings.NewReader(old))
	if err == nil || !strings.Contains(err.Error(), "rebuild the catalogue") {
		t.Fatalf("Load of a version-less file: err = %v, want one advising to rebuild the catalogue", err)
	}
}

// TestLoadRefusesMalformedEntries: a key spelled twice (hex is read in
// either case) and a sample count the table cannot hold are refused, not
// merged or truncated.
func TestLoadRefusesMalformedEntries(t *testing.T) {
	for name, tc := range map[string]struct{ entries, want string }{
		"key twice":            {`"0a01":{"lists":[1],"mu":1,"samples":9},"0A01":{"lists":[2],"mu":2,"samples":9}`, "appears twice"},
		"negative samples":     {`"0a01":{"lists":[1],"mu":1,"samples":-1}`, "samples"},
		"samples past 32 bits": {`"0a01":{"lists":[1],"mu":1,"samples":4294967296}`, "samples"},
	} {
		file := `{"version":2,"config":{"H":3},"entries":{` + tc.entries + `},"numVertices":1}`
		if _, err := Load(strings.NewReader(file)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", name, err, tc.want)
		}
	}
}

// TestZeroAllocs is the dynamic backstop of ExtendStats' //gf:noalloc
// contract — the planner's only call into the catalogue per (subquery,
// vertex): key computed on the stack, entry found by it, list sizes
// written into the caller's buffer. CI runs it via the shared
// `go test -run 'ZeroAllocs'` step.
func TestZeroAllocs(t *testing.T) {
	c := Build(datagen.Epinions(1), Config{H: 3, Z: 300, Seed: 1})
	tri, path, labelled := query.Q1(), query.Q13(), query.MustParse("a->b, b->c:7, a->c:7")
	sizes := make([]float64, 2)
	cases := []struct {
		name  string
		found bool
		body  func() (float64, bool)
	}{
		{"catalogue lookup, hit", true, func() (float64, bool) { return c.ExtendStats(tri, 0b011, 2, sizes) }},
		{"catalogue lookup, hit after reducing a 5-vertex base", true, func() (float64, bool) {
			return c.ExtendStats(path, 0b011111, 5, sizes[:1])
		}},
		{"catalogue lookup, miss", false, func() (float64, bool) { return c.ExtendStats(labelled, 0b011, 2, sizes) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, found := tc.body(); found != tc.found {
				t.Fatalf("found = %v, want %v", found, tc.found)
			}
			if a := testing.AllocsPerRun(100, func() { tc.body() }); a != 0 {
				t.Fatalf("%s allocates %v per run, want 0", tc.name, a)
			}
		})
	}
}

// TestEstimatesAgreeWithExtendStats holds a query's estimates to the
// catalogue they remember: for every connected base of each query and
// every vertex extending it, Estimates.Extension returns what
// Catalogue.ExtendStats does, bit for bit, and the sizes' sum, whether
// the lookup memo has seen the base's lookups (second pass, bases in
// reverse) or not (first pass). The labelled graph leaves some bases an
// entry and some none.
func TestEstimatesAgreeWithExtendStats(t *testing.T) {
	c := Build(datagen.Relabel(datagen.Epinions(1), 2, 3, 11), Config{H: 3, Z: 300, Seed: 1})
	qs := []*query.Graph{
		query.MustParse("a:1 -[2]-> b, b -> c:1, c -[1]-> d, d -> a:1, a:1 -> c:1, d -> e:1, e:1 -[2]-> b"),
		query.MustParse("a -> b:1, b:1 -[1]-> c, c -> a, c -> d:1, d:1 -[2]-> e, e -> f:1, f:1 -> d:1"),
	}
	for j := 1; j <= 14; j++ {
		qs = append(qs, query.Benchmark(j))
	}
	found := map[bool]int{}
	for _, q := range qs {
		est := c.Estimates(q)
		bases := q.ConnectedSubsets(1)
		for pass := 0; pass < 2; pass++ {
			for i := range bases {
				base := bases[i]
				if pass == 1 {
					base = bases[len(bases)-1-i]
				}
				for v := 0; v < q.NumVertices(); v++ {
					n := q.NumEdgesBetween(base, v)
					if base&query.Bit(v) != 0 || n == 0 {
						continue
					}
					want := make([]float64, n)
					wantMu, wantOK := c.ExtendStats(q, base, v, want)
					wantLists := 0.0
					for _, s := range want {
						wantLists += s
					}
					got := est.Extension(base, v)
					if math.Float64bits(got.Mu) != math.Float64bits(wantMu) || math.Float64bits(got.Lists) != math.Float64bits(wantLists) || !slices.Equal(got.Sizes, want) {
						t.Fatalf("%s: base %b + a%d, pass %d: estimates %v %v %v, catalogue %v %v %v", q, base, v+1, pass, got.Mu, got.Lists, got.Sizes, wantMu, wantLists, want)
					}
					found[wantOK]++
				}
			}
		}
	}
	if found[true] == 0 || found[false] == 0 {
		t.Errorf("every compared lookup found an entry or none did: %v", found)
	}
	t.Logf("compared %d lookups that found an entry and %d that fell back to the defaults", found[true], found[false])
}
