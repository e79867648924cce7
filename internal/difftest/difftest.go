// Package difftest is a differential correctness harness: it generates
// random labelled graphs and random connected query patterns, evaluates
// each pair through the full public pipeline (parse → canonicalize →
// optimize → compile → execute, hybrid plans included), and checks the
// count against the deliberately naive binary-join reference of
// internal/baseline. The two engines share no join code — BJCount is an
// edge-at-a-time nested loop over materialised tuples — so agreement
// across a corpus is strong evidence that the optimizer's plan space,
// the canonical form and the executor are consistent.
//
// The live-mutation harness (RunLiveTrial) extends the comparison to the
// versioned store: random mutation batches are applied to a live DB and
// to an implementation-independent Shadow edge set, and after every
// batch the hybrid and WCO counts on the live snapshot must match the BJ
// reference on a graph rebuilt from scratch out of the Shadow.
package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"graphflow"
	"graphflow/internal/baseline"
	"graphflow/internal/datagen"
	"graphflow/internal/exec"
	"graphflow/internal/graph"
	"graphflow/internal/query"
)

// maxBJIntermediate aborts reference evaluations whose intermediate
// relations explode; the harness skips those pairs rather than spending
// minutes on a single naive join.
const maxBJIntermediate = 400_000

// GenGraph returns a random labelled graph whose shape (preferential
// attachment with triangle closure) exercises the skew and cyclicity the
// optimizer keys on, relabelled with a few vertex and edge labels so
// label filters take part in the comparison.
func GenGraph(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := datagen.Social(datagen.SocialConfig{
		N:          100 + rng.Intn(150),
		MPerV:      2 + rng.Intn(2),
		Closure:    0.2 + 0.5*rng.Float64(),
		Reciprocal: 0.4 * rng.Float64(),
		Seed:       rng.Int63(),
	})
	return datagen.Relabel(g, 1+rng.Intn(3), 1+rng.Intn(2), rng.Int63())
}

// GenPattern returns a random connected query with 2-5 vertices: a
// random spanning tree plus a few extra cycle-closing edges, random
// directions, and labels drawn from the same small alphabets as
// GenGraph. At most one edge per vertex pair — the optimizer rejects
// parallel query edges.
func GenPattern(rng *rand.Rand) *query.Graph {
	for {
		n := 2 + rng.Intn(4)
		q := &query.Graph{}
		for v := 0; v < n; v++ {
			q.Vertices = append(q.Vertices, query.Vertex{
				Name:  fmt.Sprintf("v%d", v),
				Label: graph.Label(rng.Intn(3)),
			})
		}
		paired := map[[2]int]bool{}
		addEdge := func(a, b int) {
			if a == b {
				return
			}
			pair := [2]int{min(a, b), max(a, b)}
			if paired[pair] {
				return
			}
			paired[pair] = true
			e := query.Edge{From: a, To: b, Label: graph.Label(rng.Intn(2))}
			if rng.Intn(2) == 0 {
				e.From, e.To = e.To, e.From
			}
			q.Edges = append(q.Edges, e)
		}
		// Spanning tree: attach each vertex to an earlier one.
		for v := 1; v < n; v++ {
			addEdge(rng.Intn(v), v)
		}
		// Extra edges close cycles — the shapes where WCO and hybrid plans
		// diverge most from binary joins.
		for i := rng.Intn(4); i > 0; i-- {
			addEdge(rng.Intn(n), rng.Intn(n))
		}
		if q.Validate() == nil {
			return q
		}
		// Redraw on the (rare) structurally invalid outcome.
	}
}

// GenDenseGraph returns a small graph thick with cliques — every ordered
// vertex pair is an edge with a fixed probability — for the dense-pattern
// family, whose k-cliques the sparse GenGraph shapes almost never hold.
// With labelled set it carries 2 vertex × 3 edge labels (and a higher
// edge probability, so labelled 4-cliques still occur); otherwise none.
func GenDenseGraph(seed int64, labelled bool) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n, p := 36+rng.Intn(16), 0.22+0.06*rng.Float64()
	if labelled {
		p = 0.55 + 0.1*rng.Float64()
	}
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < p {
				b.AddEdge(graph.VertexID(u), graph.VertexID(v), 0)
			}
		}
	}
	g := b.MustBuild()
	if labelled {
		g = datagen.Relabel(g, 2, 3, rng.Int63())
	}
	return g
}

// GenRunGraph returns a run-shaped graph (datagen.RunShapes) sized for
// the reference matcher: a core of 20–27, the hub's run longer than the mid batch
// size (internal/exec's TestRunBoundaries has the one longer than the
// largest), every sixteenth periphery vertex with the hub mid-list. With
// labelled set it is relabelled like GenDenseGraph (2 vertex × 3 edge
// labels): most vertices then have no edge under a given label, and an
// operand that a run shares is often empty.
func GenRunGraph(seed int64, labelled bool) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	cfg := datagen.RunShapesConfig{
		Core: 20 + rng.Intn(8), Periphery: 160 + rng.Intn(64), P: 0.3 + 0.1*rng.Float64(), HubEvery: 16, Seed: rng.Int63(),
	}
	if labelled {
		cfg.P = 0.6
	}
	g := datagen.RunShapes(cfg)
	if labelled {
		g = datagen.Relabel(g, 2, 3, rng.Int63())
	}
	return g
}

// GenDensePattern returns a pattern from the dense family the carried
// extension sets target: a k-clique (k = 4..6 unlabelled, 4..5 labelled),
// possibly minus one edge, possibly with one or two pendant leaves, with
// edges either all oriented low→high or each flipped at random. WCO
// chains over these nest one stage's descriptors inside the next one's,
// so stages inherit — except where a missing edge, a flipped direction
// or, on labelled graphs, a differing edge or target-vertex label breaks
// the subset, which must then be recomputed from the lists. Labelled
// patterns keep one vertex label across the clique more often than not,
// so both outcomes stay common.
func GenDensePattern(rng *rand.Rand, labelled bool) *query.Graph {
	for {
		k := 4 + rng.Intn(3)
		if labelled {
			k = 4 + rng.Intn(2)
		}
		q := &query.Graph{}
		addVertex := func(l graph.Label) int {
			q.Vertices = append(q.Vertices, query.Vertex{Name: fmt.Sprintf("v%d", len(q.Vertices)), Label: l})
			return len(q.Vertices) - 1
		}
		vLabel := func() graph.Label { return 0 }
		eLabel := vLabel
		if labelled {
			base, mixV, mixE := graph.Label(rng.Intn(2)), rng.Intn(3) == 0, rng.Intn(2) == 0
			vLabel = func() graph.Label {
				if mixV {
					return graph.Label(rng.Intn(2))
				}
				return base
			}
			eBase := graph.Label(rng.Intn(3))
			eLabel = func() graph.Label {
				if mixE {
					return graph.Label(rng.Intn(3))
				}
				return eBase
			}
		}
		mixedDirs := rng.Intn(2) == 0
		addEdge := func(a, b int) {
			if mixedDirs && rng.Intn(2) == 0 {
				a, b = b, a
			}
			q.Edges = append(q.Edges, query.Edge{From: a, To: b, Label: eLabel()})
		}
		for v := 0; v < k; v++ {
			addVertex(vLabel())
		}
		drop := -1
		if rng.Intn(3) == 0 {
			drop = rng.Intn(k * (k - 1) / 2)
		}
		for i, pair := 0, 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if pair != drop {
					addEdge(i, j)
				}
				pair++
			}
		}
		if rng.Intn(3) == 0 {
			for leaves := 1 + rng.Intn(2); leaves > 0; leaves-- {
				addEdge(rng.Intn(k), addVertex(vLabel()))
			}
		}
		if q.Validate() == nil {
			return q
		}
	}
}

// GenPinnedPattern returns a pattern from the family the pinned operands
// target — shapes whose E/I stages keep one operand while another
// changes: a triangle, a diamond with or without its chord, a k-clique
// (k = 4..6 unlabelled, 4..5 labelled) whole or minus one edge, a
// triangle with one or two pendant leaves, and a bowtie (two triangles
// sharing a vertex). Edges are all oriented low→high or each flipped at
// random. On labelled graphs the vertices take one label more often than
// not and the edges one label, a random mix, or — a third of the time,
// on unlabelled graphs too — the wildcard label, whose adjacency lists
// are merged into per-descriptor reader buffers instead of aliasing the
// store.
func GenPinnedPattern(rng *rand.Rand, labelled bool) *query.Graph {
	for {
		q := &query.Graph{}
		vLabel := func() graph.Label { return 0 }
		eLabel := vLabel
		if labelled {
			base, mixV, mixE := graph.Label(rng.Intn(2)), rng.Intn(3) == 0, rng.Intn(2) == 0
			vLabel = func() graph.Label {
				if mixV {
					return graph.Label(rng.Intn(2))
				}
				return base
			}
			eBase := graph.Label(rng.Intn(3))
			eLabel = func() graph.Label {
				if mixE {
					return graph.Label(rng.Intn(3))
				}
				return eBase
			}
		}
		if rng.Intn(3) == 0 {
			eLabel = func() graph.Label { return graph.WildcardLabel }
		}
		mixedDirs := rng.Intn(2) == 0
		addVertices := func(n int) {
			for ; n > 0; n-- {
				q.Vertices = append(q.Vertices, query.Vertex{Name: fmt.Sprintf("v%d", len(q.Vertices)), Label: vLabel()})
			}
		}
		addEdge := func(a, b int) {
			if mixedDirs && rng.Intn(2) == 0 {
				a, b = b, a
			}
			q.Edges = append(q.Edges, query.Edge{From: a, To: b, Label: eLabel()})
		}
		clique := func(k, drop int) {
			addVertices(k)
			for i, pair := 0, 0; i < k; i++ {
				for j := i + 1; j < k; j++ {
					if pair != drop {
						addEdge(i, j)
					}
					pair++
				}
			}
		}
		switch rng.Intn(7) {
		case 0:
			clique(3, -1)
		case 1, 2: // diamond, with the chord every other time
			addVertices(4)
			addEdge(0, 1)
			addEdge(0, 2)
			addEdge(1, 3)
			addEdge(2, 3)
			if rng.Intn(2) == 0 {
				addEdge(1, 2)
			}
		case 3, 4: // clique, minus an edge every other time
			k := 4 + rng.Intn(3)
			if labelled {
				k = 4 + rng.Intn(2)
			}
			drop := -1
			if rng.Intn(2) == 0 {
				drop = rng.Intn(k * (k - 1) / 2)
			}
			clique(k, drop)
		case 5:
			clique(3, -1)
			for leaves := 1 + rng.Intn(2); leaves > 0; leaves-- {
				addVertices(1)
				addEdge(rng.Intn(3), len(q.Vertices)-1)
			}
		case 6:
			clique(3, -1)
			addVertices(2)
			addEdge(0, 3)
			addEdge(3, 4)
			addEdge(0, 4)
		}
		if q.Validate() == nil {
			return q
		}
	}
}

// OpenDB wraps g in a DB with a deliberately tiny catalogue (H=2, small
// sample): on labelled graphs a full catalogue samples a huge labelled
// pattern space, and the corpus trades catalogue fidelity for volume —
// plan *choice* may differ from a production DB, correctness must not.
func OpenDB(g *graph.Graph) (*graphflow.DB, error) {
	return OpenLiveDB(g, 0)
}

// OpenLiveDB is OpenDB with an explicit compaction threshold, for trials
// that interleave mutations with queries. A small positive threshold
// races the background compactor against queries and writers; a negative
// one keeps the overlay growing so overlay reads stay exercised.
func OpenLiveDB(g *graph.Graph, compactThreshold int) (*graphflow.DB, error) {
	b := graphflow.NewBuilder(g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		b.SetVertexLabel(uint32(v), uint16(g.VertexLabel(graph.VertexID(v))))
	}
	g.Edges(func(src, dst graph.VertexID, l graph.Label) bool {
		b.AddEdge(uint32(src), uint32(dst), uint16(l))
		return true
	})
	return b.Open(&graphflow.Options{
		CatalogueZ:       100,
		CatalogueH:       2,
		CompactThreshold: compactThreshold,
	})
}

// Shadow is an implementation-independent record of the logical graph a
// live DB should hold: plain vertex labels and a directed-edge set. The
// harness applies every mutation batch to both the live DB and the
// Shadow, then rebuilds a frozen graph from the Shadow to check the live
// snapshot against a from-scratch build that shares none of the overlay
// code.
type Shadow struct {
	VLabels []graph.Label
	Edges   map[ShadowEdge]bool
}

// ShadowEdge is one directed labelled edge of a Shadow.
type ShadowEdge struct {
	Src, Dst graph.VertexID
	Label    graph.Label
}

// NewShadow records g's logical content.
func NewShadow(g *graph.Graph) *Shadow {
	sh := &Shadow{Edges: map[ShadowEdge]bool{}}
	for v := 0; v < g.NumVertices(); v++ {
		sh.VLabels = append(sh.VLabels, g.VertexLabel(graph.VertexID(v)))
	}
	g.Edges(func(src, dst graph.VertexID, l graph.Label) bool {
		sh.Edges[ShadowEdge{src, dst, l}] = true
		return true
	})
	return sh
}

// Apply mirrors the live store's batch semantics: vertices append first,
// self-loops and duplicates drop, absent deletes are no-ops.
func (sh *Shadow) Apply(b graphflow.Batch) {
	for _, l := range b.AddVertices {
		sh.VLabels = append(sh.VLabels, graph.Label(l))
	}
	for _, e := range b.AddEdges {
		if e.Src == e.Dst {
			continue
		}
		sh.Edges[ShadowEdge{graph.VertexID(e.Src), graph.VertexID(e.Dst), graph.Label(e.Label)}] = true
	}
	for _, e := range b.DeleteEdges {
		delete(sh.Edges, ShadowEdge{graph.VertexID(e.Src), graph.VertexID(e.Dst), graph.Label(e.Label)})
	}
}

// Build freezes the shadow into a CSR graph through the ordinary Builder
// path — the "rebuilt from scratch at the same epoch" reference.
func (sh *Shadow) Build() *graph.Graph {
	b := graph.NewBuilder(len(sh.VLabels))
	for v, l := range sh.VLabels {
		b.SetVertexLabel(graph.VertexID(v), l)
	}
	for e := range sh.Edges {
		b.AddEdge(e.Src, e.Dst, e.Label)
	}
	return b.MustBuild()
}

// sortedEdges returns the shadow's edges in deterministic order, so
// delete sampling is reproducible per seed.
func (sh *Shadow) sortedEdges() []ShadowEdge {
	out := make([]ShadowEdge, 0, len(sh.Edges))
	for e := range sh.Edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.Label < b.Label
	})
	return out
}

// GenBatch draws a random mutation batch against the shadow's current
// dimensions: a few vertex appends, edge adds (including duplicates,
// self-loops and edges to the new vertices) and deletes (mostly existing
// edges, some absent).
func GenBatch(rng *rand.Rand, sh *Shadow) graphflow.Batch {
	var b graphflow.Batch
	for i := rng.Intn(3); i > 0; i-- {
		b.AddVertices = append(b.AddVertices, uint16(rng.Intn(3)))
	}
	nAfter := len(sh.VLabels) + len(b.AddVertices)
	for i := 1 + rng.Intn(25); i > 0; i-- {
		b.AddEdges = append(b.AddEdges, graphflow.EdgeOp{
			Src:   uint32(rng.Intn(nAfter)),
			Dst:   uint32(rng.Intn(nAfter)),
			Label: uint16(rng.Intn(2)),
		})
	}
	existing := sh.sortedEdges()
	for i := rng.Intn(15); i > 0 && len(existing) > 0; i-- {
		e := existing[rng.Intn(len(existing))]
		b.DeleteEdges = append(b.DeleteEdges, graphflow.EdgeOp{Src: uint32(e.Src), Dst: uint32(e.Dst), Label: uint16(e.Label)})
	}
	for i := rng.Intn(4); i > 0; i-- {
		b.DeleteEdges = append(b.DeleteEdges, graphflow.EdgeOp{
			Src:   uint32(rng.Intn(nAfter)),
			Dst:   uint32(rng.Intn(nAfter)),
			Label: uint16(rng.Intn(2)),
		})
	}
	return b
}

// BatchSizes is the matrix the vectorized engine is differentially
// tested at: single-row batches (maximum flush pressure), an odd size
// that never divides fan-outs evenly, a mid size, and the engine
// default. RunBatchSizes adds two-row batches — the shortest that hold a
// prefix run, where one-row batches hold none — for the families whose
// E/I stages work in runs (CompareCarried).
var (
	BatchSizes    = []int{1, 3, 64, 1024}
	RunBatchSizes = []int{1, 2, 3, 64, 1024}
)

// CacheOff and NoFactorize are the engine ablations the sweeps run
// beside the default: Table 3's "Cache Off" and the factorized tier
// turned off. No public option reaches them; Under attaches one to a
// query's context.
func CacheOff(c *exec.RunConfig)    { c.DisableCache = true }
func NoFactorize(c *exec.RunConfig) { c.NoFactorize = true }

// Under returns a copy of opts whose context carries the run-config hook
// fn (exec.WithRunConfig), so every run of the query has fn applied to
// its RunConfig.
func Under(opts graphflow.QueryOptions, fn func(*exec.RunConfig)) *graphflow.QueryOptions {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	opts.Context = exec.WithRunConfig(ctx, fn)
	return &opts
}

// maxRowCollect bounds how many result tuples CompareBatchMatrix
// materialises for set comparison; beyond it only counts are compared
// (the corpus's reference budget keeps most entries well below this).
const maxRowCollect = 30_000

// collectRows enumerates every match of pattern at the given batch size
// as deterministic row strings, sorted.
func collectRows(db *graphflow.DB, pattern string, batchSize int) ([]string, error) {
	return collectRowsOpts(db, pattern, &graphflow.QueryOptions{BatchSize: batchSize})
}

// collectRowsOpts is collectRows under arbitrary query options.
func collectRowsOpts(db *graphflow.DB, pattern string, opts *graphflow.QueryOptions) ([]string, error) {
	var names []string
	var rows []string
	err := db.Match(pattern, func(m map[string]uint32) bool {
		if names == nil {
			for k := range m {
				names = append(names, k)
			}
			sort.Strings(names)
		}
		var sb strings.Builder
		for _, k := range names {
			fmt.Fprintf(&sb, "%s=%d;", k, m[k])
		}
		rows = append(rows, sb.String())
		return true
	}, opts)
	if err != nil {
		return nil, err
	}
	sort.Strings(rows)
	return rows, nil
}

// reference is what the Compare* sweeps hold the engine to: q's count on
// ref — the graph db holds, or a from-scratch rebuild of it — and, when
// that is at most maxRows (or maxRows is 0), its rows in collectRows'
// form, sorted;
// with distinct, only the matches that bind pairwise-distinct vertices.
// Both come from query.RefEnumerate, which shares no code with the engine.
// A pattern with a wildcard edge label is the exception: its adjacency
// lists are multisets, the engine's kernels keep the smaller multiplicity,
// and no reference defines that count, so db's own plan at one row a
// batch (where no prefix run forms and nothing is pinned) stands in.
func reference(db *graphflow.DB, ref graph.View, q *query.Graph, wco, distinct bool, maxRows int64) (int64, []string, error) {
	over := func(n int64) bool { return maxRows > 0 && n > maxRows }
	pattern := q.String()
	for _, e := range q.Edges {
		if e.Label == graph.WildcardLabel {
			opts := &graphflow.QueryOptions{BatchSize: 1, WCOOnly: wco, Distinct: distinct}
			n, err := db.Count(pattern, opts)
			if err != nil || over(n) {
				return n, nil, err
			}
			rows, err := collectRowsOpts(db, pattern, opts)
			return n, rows, err
		}
	}
	// Parsed back from the pattern db is given, so the names are the ones
	// Match reports.
	pq, err := query.ParseAny(pattern)
	if err != nil {
		return 0, nil, err
	}
	order := make([]int, len(pq.Vertices))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return pq.Vertices[order[i]].Name < pq.Vertices[order[j]].Name })
	var rows []string
	n := int64(0)
	query.RefEnumerate(ref, pq, func(a []graph.VertexID) {
		if distinct && !pairwiseDistinct(a) {
			return
		}
		if n++; over(n) {
			rows = nil
			return
		}
		var sb strings.Builder
		for _, v := range order {
			fmt.Fprintf(&sb, "%s=%d;", pq.Vertices[v].Name, a[v])
		}
		rows = append(rows, sb.String())
	})
	if over(n) {
		return n, nil, nil
	}
	sort.Strings(rows)
	return n, rows, nil
}

// pairwiseDistinct reports whether a binds every query vertex to another
// data vertex.
func pairwiseDistinct(a []graph.VertexID) bool {
	for i := range a {
		for j := range i {
			if a[i] == a[j] {
				return false
			}
		}
	}
	return true
}

// diffRows reports the first difference between two sorted row sets.
func diffRows(rows, wantRows []string) error {
	if len(rows) != len(wantRows) {
		return fmt.Errorf("%d rows, reference %d", len(rows), len(wantRows))
	}
	for i := range rows {
		if rows[i] != wantRows[i] {
			return fmt.Errorf("row %d = %s, reference %s", i, rows[i], wantRows[i])
		}
	}
	return nil
}

// CompareBatchMatrix evaluates q on db at every entry of BatchSizes,
// requiring the reference's count on ref (the graph db holds; see
// reference) sequentially and under Workers=4, and its sorted tuple set.
// Any engine divergence — scan fill, run-grouped intersection, grouped
// probe, flush/limit accounting, morsel scheduling — surfaces as an
// error naming the batch size.
func CompareBatchMatrix(db *graphflow.DB, ref graph.View, q *query.Graph) error {
	pattern := q.String()
	want, wantRows, err := reference(db, ref, q, false, false, maxRowCollect)
	if err != nil {
		return fmt.Errorf("reference of %q: %w", pattern, err)
	}
	for _, bs := range BatchSizes {
		got, err := db.Count(pattern, &graphflow.QueryOptions{BatchSize: bs})
		if err != nil {
			return fmt.Errorf("batch %d count of %q: %w", bs, pattern, err)
		}
		if got != want {
			return fmt.Errorf("batch %d count of %q = %d, reference %d", bs, pattern, got, want)
		}
		gotPar, err := db.Count(pattern, &graphflow.QueryOptions{BatchSize: bs, Workers: 4})
		if err != nil {
			return fmt.Errorf("batch %d parallel count of %q: %w", bs, pattern, err)
		}
		if gotPar != want {
			return fmt.Errorf("batch %d parallel count of %q = %d, reference %d", bs, pattern, gotPar, want)
		}
		if wantRows == nil {
			continue
		}
		rows, err := collectRows(db, pattern, bs)
		if err != nil {
			return fmt.Errorf("batch %d rows of %q: %w", bs, pattern, err)
		}
		if err := diffRows(rows, wantRows); err != nil {
			return fmt.Errorf("batch %d of %q: %w", bs, pattern, err)
		}
	}
	return nil
}

// CompareFactorized pits factorized star-suffix execution against the
// reference on ref (the graph db holds) for one pattern: full counts with
// factorization on (the default) and off (sequential and Workers=4), exact
// Limit caps across a spectrum that lands limits mid-cross-product (the
// shared-budget claiming must sum to exactly min(limit, total) even
// across racing workers), identical sorted tuple sets from the lazy
// unfold, and the reference's Distinct count — in full and capped at half
// of it — whose post-filter reads the rows the unfold emits. Patterns
// without a star-shaped suffix degrade to plain batch execution, so the
// sweep is safe on any corpus pattern.
func CompareFactorized(db *graphflow.DB, ref graph.View, q *query.Graph) error {
	pattern := q.String()
	want, wantRows, err := reference(db, ref, q, false, false, maxRowCollect)
	if err != nil {
		return fmt.Errorf("reference of %q: %w", pattern, err)
	}
	for _, workers := range []int{0, 4} {
		for _, off := range []bool{false, true} {
			opts := &graphflow.QueryOptions{Workers: workers}
			if off {
				opts = Under(*opts, NoFactorize)
			}
			got, err := db.Count(pattern, opts)
			if err != nil {
				return fmt.Errorf("factorized(off=%v) workers=%d count of %q: %w", off, workers, pattern, err)
			}
			if got != want {
				return fmt.Errorf("factorized(off=%v) workers=%d count of %q = %d, reference %d", off, workers, pattern, got, want)
			}
		}
	}
	// Exact Limit caps: cross-product counting claims whole products
	// against a shared budget, and the final product is truncated to the
	// remainder, so every cap must be hit exactly — including limits that
	// land in the middle of one prefix's product and limits past the total.
	for _, limit := range []int64{1, 2, want / 2, want - 1, want, want + 13} {
		if limit <= 0 {
			continue
		}
		wantLim := limit
		if wantLim > want {
			wantLim = want
		}
		for _, workers := range []int{0, 4} {
			got, err := db.Count(pattern, &graphflow.QueryOptions{Workers: workers, Limit: limit})
			if err != nil {
				return fmt.Errorf("factorized limit=%d workers=%d count of %q: %w", limit, workers, pattern, err)
			}
			if got != wantLim {
				return fmt.Errorf("factorized limit=%d workers=%d count of %q = %d, want exactly %d", limit, workers, pattern, got, wantLim)
			}
		}
	}
	// The lazy unfold must deliver the reference's exact tuple set.
	if wantRows != nil {
		rows, err := collectRows(db, pattern, 0)
		if err != nil {
			return fmt.Errorf("factorized rows of %q: %w", pattern, err)
		}
		if err := diffRows(rows, wantRows); err != nil {
			return fmt.Errorf("factorized match of %q: %w", pattern, err)
		}
	}
	wantDistinct, _, err := reference(db, ref, q, false, true, maxRowCollect)
	if err != nil {
		return fmt.Errorf("reference distinct count of %q: %w", pattern, err)
	}
	for _, workers := range []int{0, 4} {
		for _, limit := range []int64{0, wantDistinct / 2} {
			opts := &graphflow.QueryOptions{Workers: workers, Distinct: true, Limit: limit}
			want := wantDistinct
			if limit > 0 {
				want = limit
			}
			got, err := db.Count(pattern, opts)
			if err != nil || got != want {
				return fmt.Errorf("factorized distinct count of %q under %+v = %d, %v; want %d", pattern, *opts, got, err, want)
			}
		}
	}
	return nil
}

// CompareCarried is the dense-pattern sweep behind the carried extension
// sets: on one (db, pattern) pair, for the optimizer's plan and the
// WCO-restricted one (the chains where stages inherit), at every entry of
// RunBatchSizes (prefix runs split across batch boundaries differently at
// each), it requires the reference's count on ref (the graph db holds)
// sequentially and under Workers=4, with factorization on and off and
// with the intersection cache — hence the carrying and the pinning — off;
// an exact Limit spectrum; and the reference's sorted row set. It returns
// how many intersections were seeded with a carried set and how many
// swept a list through a pinned operand's bitmap, so a corpus can assert
// its path was exercised at all.
func CompareCarried(db *graphflow.DB, ref graph.View, q *query.Graph) (carried, pinned int64, err error) {
	st, err := compareEngine(db, ref, q, RunBatchSizes, false)
	return st.CarriedSets, st.KernelPinnedProbe, err
}

// CompareAdaptive is CompareCarried with every engine query Adaptive
// (Section 6: the plan's trailing E/I chain re-ordered from run to run of
// tuples), plus what the option used to ignore or break, at every batch
// size, sequentially and under Workers=4: the reference's Distinct
// count, a Limit through Match, and the reference's rows — which arrive
// in another order but in the plan's own layout, so the sorted row sets
// must still be equal. It returns how many runs left the plan's own
// ordering, so a corpus can assert that its routers had something to
// route.
func CompareAdaptive(db *graphflow.DB, ref graph.View, q *query.Graph) (reroutes int64, err error) {
	st, err := compareEngine(db, ref, q, BatchSizes, true)
	if err != nil {
		return st.Reroutes, err
	}
	pattern := q.String()
	for _, wco := range []bool{false, true} {
		_, wantRows, err := reference(db, ref, q, wco, false, 0)
		if err != nil {
			return st.Reroutes, fmt.Errorf("reference rows of %q: %w", pattern, err)
		}
		wantDistinct, _, err := reference(db, ref, q, wco, true, 0)
		if err != nil {
			return st.Reroutes, fmt.Errorf("reference distinct count of %q: %w", pattern, err)
		}
		for _, bs := range BatchSizes {
			for _, workers := range []int{0, 4} {
				opts := graphflow.QueryOptions{Adaptive: true, BatchSize: bs, Workers: workers, WCOOnly: wco}
				rows, err := collectRowsOpts(db, pattern, &opts)
				if err != nil {
					return st.Reroutes, fmt.Errorf("rows of %q under %+v: %w", pattern, opts, err)
				}
				if err := diffRows(rows, wantRows); err != nil {
					return st.Reroutes, fmt.Errorf("%q under %+v: %w", pattern, opts, err)
				}
				opts.Distinct = true
				if got, err := db.Count(pattern, &opts); err != nil || got != wantDistinct {
					return st.Reroutes, fmt.Errorf("count of %q under %+v = %d, %v; reference %d", pattern, opts, got, err, wantDistinct)
				}
				opts.Distinct, opts.Limit = false, int64(len(wantRows)/2)
				if rows, err = collectRowsOpts(db, pattern, &opts); err != nil || len(rows) != len(wantRows)/2 {
					return st.Reroutes, fmt.Errorf("match of %q under %+v delivered %d rows, %v; want exactly the limit", pattern, opts, len(rows), err)
				}
			}
		}
	}
	return st.Reroutes, nil
}

// compareEngine is the sweep behind CompareCarried and CompareAdaptive,
// at the given batch sizes; the Stats it returns sum CarriedSets,
// KernelPinnedProbe and Reroutes over the sweep's full counts.
func compareEngine(db *graphflow.DB, ref graph.View, q *query.Graph, sizes []int, adaptive bool) (sum graphflow.Stats, err error) {
	pattern := q.String()
	for _, wco := range []bool{false, true} {
		want, wantRows, err := reference(db, ref, q, wco, false, maxRowCollect)
		if err != nil {
			return sum, fmt.Errorf("reference of %q: %w", pattern, err)
		}
		for _, bs := range sizes {
			for _, workers := range []int{0, 4} {
				engine := graphflow.QueryOptions{BatchSize: bs, Workers: workers, WCOOnly: wco, Adaptive: adaptive}
				variants := []struct {
					name string
					opts *graphflow.QueryOptions
				}{{"default", &engine}, {"factorization off", Under(engine, NoFactorize)}, {"cache off", Under(engine, CacheOff)}}
				for _, v := range variants {
					got, st, err := db.CountStats(pattern, v.opts)
					if err != nil {
						return sum, fmt.Errorf("%s count of %q under %+v: %w", v.name, pattern, engine, err)
					}
					if got != want {
						return sum, fmt.Errorf("%s count of %q under %+v = %d, reference %d", v.name, pattern, engine, got, want)
					}
					if v.name == "cache off" && (st.CarriedSets != 0 || st.KernelPinnedProbe != 0) {
						return sum, fmt.Errorf("%q under %+v carried %d sets and dispatched %d pinned probes with the cache off",
							pattern, engine, st.CarriedSets, st.KernelPinnedProbe)
					}
					sum.CarriedSets += st.CarriedSets
					sum.KernelPinnedProbe += st.KernelPinnedProbe
					sum.Reroutes += st.Reroutes
				}
				limits := []int64{1, 2, want / 2, want - 1, want, want + 13}
				if workers > 1 {
					// Racing workers add nothing new at the extremes.
					limits = []int64{want / 2, want - 1}
				}
				for _, limit := range limits {
					if limit <= 0 {
						continue
					}
					opts := engine
					opts.Limit = limit
					got, err := db.Count(pattern, &opts)
					if err != nil {
						return sum, fmt.Errorf("limit count of %q under %+v: %w", pattern, opts, err)
					}
					if wantLim := min(limit, want); got != wantLim {
						return sum, fmt.Errorf("limit count of %q under %+v = %d, want exactly %d", pattern, opts, got, wantLim)
					}
				}
			}
			if wantRows == nil {
				continue
			}
			engine := &graphflow.QueryOptions{BatchSize: bs, WCOOnly: wco, Adaptive: adaptive}
			rows, err := collectRowsOpts(db, pattern, engine)
			if err != nil {
				return sum, fmt.Errorf("rows of %q under %+v: %w", pattern, *engine, err)
			}
			if err := diffRows(rows, wantRows); err != nil {
				return sum, fmt.Errorf("%q under %+v: %w", pattern, *engine, err)
			}
		}
	}
	return sum, nil
}

// CompareDBs checks that got answers q exactly as want does — full
// count, Limit caps and the sorted tuple set — for two DBs that should
// hold the same logical graph under the same vertex IDs, such as a live
// DB and a DB opened over a from-scratch rebuild of its shadow.
func CompareDBs(got, want *graphflow.DB, q *query.Graph) error {
	pattern := q.String()
	total, err := want.Count(pattern, nil)
	if err != nil {
		return fmt.Errorf("reference count of %q: %w", pattern, err)
	}
	n, err := got.Count(pattern, nil)
	if err != nil {
		return fmt.Errorf("count of %q: %w", pattern, err)
	}
	if n != total {
		return fmt.Errorf("count of %q = %d, reference %d", pattern, n, total)
	}
	for _, limit := range []int64{1, total / 2, total + 7} {
		if limit <= 0 {
			continue
		}
		wantLim := limit
		if wantLim > total {
			wantLim = total
		}
		n, err := got.Count(pattern, &graphflow.QueryOptions{Limit: limit})
		if err != nil {
			return fmt.Errorf("limit=%d count of %q: %w", limit, pattern, err)
		}
		if n != wantLim {
			return fmt.Errorf("limit=%d count of %q = %d, want exactly %d", limit, pattern, n, wantLim)
		}
	}
	if total > maxRowCollect {
		return nil
	}
	wantRows, err := collectRows(want, pattern, 0)
	if err != nil {
		return fmt.Errorf("reference rows of %q: %w", pattern, err)
	}
	rows, err := collectRows(got, pattern, 0)
	if err != nil {
		return fmt.Errorf("rows of %q: %w", pattern, err)
	}
	if err := diffRows(rows, wantRows); err != nil {
		return fmt.Errorf("match of %q: %w", pattern, err)
	}
	return nil
}

// Result is the outcome of one graph/pattern comparison.
type Result struct {
	Pattern  string
	Want     int64 // reference BJ count
	Got      int64 // hybrid-plan count through the public API
	GotWCO   int64 // WCO-restricted count
	PlanKind string
	Skipped  bool // reference blew the intermediate-size budget
}

// ComparePair counts q on db via the optimizer's chosen (possibly
// hybrid) plan and via the WCO-restricted plan space, and checks both
// against the baseline BJ reference on g.
func ComparePair(db *graphflow.DB, g *graph.Graph, q *query.Graph) (Result, error) {
	res := Result{Pattern: q.String()}
	want, _, err := baseline.BJCount(g, q, baseline.BJConfig{
		EagerClose:      true,
		MaxIntermediate: maxBJIntermediate,
	})
	if err == baseline.ErrTooLarge {
		res.Skipped = true
		return res, nil
	}
	if err != nil {
		return res, fmt.Errorf("reference BJ on %q: %w", res.Pattern, err)
	}
	res.Want = want

	got, st, err := db.CountStats(res.Pattern, nil)
	if err != nil {
		return res, fmt.Errorf("hybrid count of %q: %w", res.Pattern, err)
	}
	res.Got = got
	res.PlanKind = st.PlanKind

	gotWCO, err := db.Count(res.Pattern, &graphflow.QueryOptions{WCOOnly: true})
	if err != nil {
		return res, fmt.Errorf("wco count of %q: %w", res.Pattern, err)
	}
	res.GotWCO = gotWCO
	return res, nil
}

// RunLiveTrial drives one live-mutation trial: a random graph opened as
// a live DB, then `batches` rounds of (apply random mutation batch,
// occasionally force compaction, compare a random pattern's hybrid and
// WCO counts on the live snapshot against the BJ reference on a
// from-scratch rebuild of the shadow). Each round is one (graph,
// mutation batch, pattern) triple. Returns per-round results; a Result
// with Skipped set means the reference blew its budget for that round.
func RunLiveTrial(seed int64, batches int) ([]Result, error) {
	rng := rand.New(rand.NewSource(seed))
	g := GenGraph(seed)
	// Rotate compaction regimes: racing background compactor, frequent
	// compaction, and no compaction (pure overlay reads).
	threshold := []int{10, 100, -1}[rng.Intn(3)]
	db, err := OpenLiveDB(g, threshold)
	if err != nil {
		return nil, fmt.Errorf("seed %d: open live DB: %w", seed, err)
	}
	sh := NewShadow(g)
	var out []Result
	for i := 0; i < batches; i++ {
		b := GenBatch(rng, sh)
		if _, err := db.Apply(b); err != nil {
			return out, fmt.Errorf("seed %d batch %d: apply: %w", seed, i, err)
		}
		sh.Apply(b)
		if rng.Intn(4) == 0 {
			if err := db.Compact(); err != nil {
				return out, fmt.Errorf("seed %d batch %d: compact: %w", seed, i, err)
			}
		}
		rebuilt := sh.Build()
		if db.NumEdges() != rebuilt.NumEdges() || db.NumVertices() != rebuilt.NumVertices() {
			return out, fmt.Errorf("seed %d batch %d: live counts V=%d E=%d, rebuild V=%d E=%d",
				seed, i, db.NumVertices(), db.NumEdges(), rebuilt.NumVertices(), rebuilt.NumEdges())
		}
		res, err := ComparePair(db, rebuilt, GenPattern(rng))
		if err != nil {
			return out, fmt.Errorf("seed %d batch %d: %w", seed, i, err)
		}
		out = append(out, res)
	}
	db.WaitCompaction()
	return out, nil
}
