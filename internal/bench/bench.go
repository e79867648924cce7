// Package bench regenerates every table and figure of the paper's
// evaluation (Section 8 and Appendices B-D) on the synthetic datasets of
// internal/datagen. Each experiment prints rows shaped like the paper's
// tables; cmd/gfbench runs them (README, "Commands"). Every experiment
// plans with the zero optimizer.Options and runs the zero exec.RunConfig
// apart from its own knob, which is what a query of the DB gets.
package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"graphflow/internal/catalogue"
	"graphflow/internal/datagen"
	"graphflow/internal/exec"
	"graphflow/internal/graph"
	"graphflow/internal/optimizer"
	"graphflow/internal/plan"
	"graphflow/internal/query"
	"graphflow/internal/resource"
)

// Experiment is a runnable reproduction of one table or figure.
type Experiment struct {
	Name  string
	About string
	Run   func(w io.Writer, scale int) error
}

// Experiments returns the registry, in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table3", "intersection cache on/off across diamond-X WCO plans", Table3},
		{"table4", "adjacency-list direction effects on the asymmetric triangle", Table4},
		{"table5", "intermediate-result effects on the tailed triangle", Table5},
		{"table6", "intersection-cache-hit effects on the symmetric diamond-X", Table6},
		{"fig7", "plan spectra with the optimizer's pick marked", Fig7},
		{"fig8", "fixed vs adaptive WCO plan spectra", Fig8},
		{"fig9", "EmptyHeaded plan spectra vs Graphflow spectra", Fig9},
		{"table9", "Graphflow vs EmptyHeaded (good/bad orderings)", Table9},
		{"fig11", "scalability across worker counts", Fig11},
		{"table10", "catalogue q-error vs sample size z", Table10},
		{"table11", "catalogue q-error vs maximum subgraph size h", Table11},
		{"table12", "CFL-style matcher vs Graphflow on labelled query sets", Table12},
		{"table13", "binary-join (Neo4j-style) baseline vs Graphflow", Table13},
	}
}

// Run executes the named experiment ("all" runs every one).
func Run(name string, w io.Writer, scale int) error {
	if name == "all" {
		for _, e := range Experiments() {
			fmt.Fprintf(w, "=== %s: %s ===\n", e.Name, e.About)
			if err := e.Run(w, scale); err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	for _, e := range Experiments() {
		if e.Name == name {
			return e.Run(w, scale)
		}
	}
	return fmt.Errorf("bench: unknown experiment %q", name)
}

// env caches datasets and catalogues across experiments within a process.
type envKey struct {
	dataset string
	scale   int
	labels  int
}

var (
	graphCache = map[envKey]*graph.Graph{}
	catCache   = map[envKey]*catalogue.Catalogue{}
)

// dataset returns the named graph with the given number of random edge
// labels (1 = unlabeled), memoised.
func dataset(name string, scale, labels int) *graph.Graph {
	key := envKey{name, scale, labels}
	if g, ok := graphCache[key]; ok {
		return g
	}
	g := datagen.ByName(name, scale)
	if g == nil {
		panic("bench: unknown dataset " + name)
	}
	if labels > 1 {
		g = datagen.Relabel(g, 1, labels, int64(labels)*7919)
	}
	graphCache[key] = g
	return g
}

// cat returns the default catalogue for a dataset, memoised.
func cat(name string, scale, labels int) *catalogue.Catalogue {
	key := envKey{name, scale, labels}
	if c, ok := catCache[key]; ok {
		return c
	}
	c := catalogue.Build(dataset(name, scale, labels), catalogue.Config{H: 3, Z: 1000, MaxInstances: 500, Seed: 4242})
	catCache[key] = c
	return c
}

// countPlan compiles p against g and counts its matches under cfg,
// stopping once limit matches are found (limit <= 0 counts them all).
// Compiling takes microseconds, so timing the call times the run.
func countPlan(g *graph.Graph, p *plan.Plan, cfg exec.RunConfig, limit int64) (int64, exec.Profile, error) {
	cp, err := exec.Compile(g, p)
	if err != nil {
		return 0, exec.Profile{}, err
	}
	return cp.CountUpToCtx(context.Background(), cfg, limit)
}

// runMemBudget is the memory a capped run (Table 9, the spectrum) may
// reserve, hash-join build tables above all, before it is reported Mm.
const runMemBudget = int64(128 << 20)

// countBudgeted counts p's matches on g like countPlan, under a memory
// budget of its own of runMemBudget bytes. mm reports a run the budget
// stopped: the paper's Mm (out of memory).
func countBudgeted(g *graph.Graph, p *plan.Plan, limit int64) (n int64, prof exec.Profile, mm bool, err error) {
	mem := resource.NewBudget(runMemBudget, nil)
	defer mem.Close()
	n, prof, err = countPlan(g, p, exec.RunConfig{MemBudget: mem}, limit)
	if errors.Is(err, resource.ErrBudgetExceeded) {
		return n, prof, true, nil
	}
	return n, prof, false, err
}

// timeRun executes the plan and returns elapsed seconds plus the profile.
func timeRun(g *graph.Graph, p *plan.Plan, workers int, noCache bool) (float64, int64, exec.Profile, error) {
	start := time.Now()
	n, prof, err := countPlan(g, p, exec.RunConfig{Workers: workers, DisableCache: noCache}, 0)
	return time.Since(start).Seconds(), n, prof, err
}

// labelQuery applies the QJi workload labelling to q (labels <= 1 returns
// q unchanged).
func labelQuery(q *query.Graph, labels int) *query.Graph {
	return query.WithRandomEdgeLabels(q, labels, int64(labels)*104729)
}

// orderName renders a QVO as the paper writes them (a2a3a1a4).
func orderName(order []int) string {
	s := ""
	for _, v := range order {
		s += fmt.Sprintf("a%d", v+1)
	}
	return s
}

// RandomQueryFromGraph draws a connected query with numVertices vertices
// whose structure and labels come from a random-walk sample of g, so the
// query is guaranteed to have at least one match (the CFL paper's query
// workload methodology). Dense queries keep all induced edges; sparse ones
// keep a spanning tree plus a few extras (average degree <= 3).
func RandomQueryFromGraph(g *graph.Graph, numVertices int, dense bool, rng *rand.Rand) *query.Graph {
	for attempt := 0; attempt < 100; attempt++ {
		verts := sampleConnectedVertices(g, numVertices, rng)
		if len(verts) < numVertices {
			continue
		}
		q := induceQuery(g, verts, dense, rng)
		if q != nil && q.Validate() == nil && noParallelEdges(q) {
			return q
		}
	}
	return nil
}

func sampleConnectedVertices(g *graph.Graph, n int, rng *rand.Rand) []graph.VertexID {
	if g.NumVertices() == 0 {
		return nil
	}
	start := graph.VertexID(rng.Intn(g.NumVertices()))
	seen := map[graph.VertexID]bool{start: true}
	order := []graph.VertexID{start}
	frontier := []graph.VertexID{start}
	for len(order) < n && len(frontier) > 0 {
		v := frontier[rng.Intn(len(frontier))]
		var nbrs []graph.VertexID
		nbrs = append(nbrs, g.Neighbors(v, graph.Forward, graph.WildcardLabel, graph.WildcardLabel, nil)...)
		nbrs = append(nbrs, g.Neighbors(v, graph.Backward, graph.WildcardLabel, graph.WildcardLabel, nil)...)
		added := false
		rng.Shuffle(len(nbrs), func(i, j int) { nbrs[i], nbrs[j] = nbrs[j], nbrs[i] })
		for _, w := range nbrs {
			if !seen[w] {
				seen[w] = true
				order = append(order, w)
				frontier = append(frontier, w)
				added = true
				break
			}
		}
		if !added {
			// Remove exhausted frontier vertex.
			for i, f := range frontier {
				if f == v {
					frontier = append(frontier[:i], frontier[i+1:]...)
					break
				}
			}
		}
	}
	return order
}

func induceQuery(g *graph.Graph, verts []graph.VertexID, dense bool, rng *rand.Rand) *query.Graph {
	idx := map[graph.VertexID]int{}
	q := &query.Graph{}
	for i, v := range verts {
		idx[v] = i
		q.Vertices = append(q.Vertices, query.Vertex{
			Name:  fmt.Sprintf("a%d", i+1),
			Label: g.VertexLabel(v),
		})
	}
	type pair struct{ a, b int }
	used := map[pair]bool{}
	var candidates []query.Edge
	for _, v := range verts {
		g.EdgesOf(v, func(src, dst graph.VertexID, el graph.Label) bool {
			j, ok := idx[dst]
			if !ok {
				return true
			}
			i := idx[src]
			a, b := i, j
			if a > b {
				a, b = b, a
			}
			if used[pair{a, b}] {
				return true
			}
			used[pair{a, b}] = true
			candidates = append(candidates, query.Edge{From: i, To: j, Label: el})
			return true
		})
	}
	if len(candidates) < len(verts)-1 {
		return nil
	}
	if dense {
		q.Edges = candidates
		return q
	}
	// Sparse: spanning structure plus extras up to ~1.3x vertices.
	rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
	target := len(verts) + len(verts)/3
	connected := make([]bool, len(verts))
	var edges []query.Edge
	connected[0] = true
	// Greedy spanning: repeatedly add an edge touching the connected part.
	for {
		added := false
		for _, e := range candidates {
			if len(edges) >= len(verts)-1 {
				break
			}
			if connected[e.From] != connected[e.To] {
				edges = append(edges, e)
				connected[e.From], connected[e.To] = true, true
				added = true
			}
		}
		if !added {
			break
		}
	}
	for _, e := range candidates {
		if len(edges) >= target {
			break
		}
		dup := false
		for _, have := range edges {
			if have == e {
				dup = true
				break
			}
		}
		if !dup {
			edges = append(edges, e)
		}
	}
	q.Edges = edges
	if !q.IsConnected(query.AllMask(len(verts))) {
		return nil
	}
	return q
}

func noParallelEdges(q *query.Graph) bool {
	seen := map[[2]int]bool{}
	for _, e := range q.Edges {
		a, b := e.From, e.To
		if a > b {
			a, b = b, a
		}
		if seen[[2]int{a, b}] {
			return false
		}
		seen[[2]int{a, b}] = true
	}
	return true
}

// optimizeAndRun is the Graphflow side of every comparison: plan with the
// DP optimizer, execute, time.
func optimizeAndRun(g *graph.Graph, c *catalogue.Catalogue, q *query.Graph, workers int) (float64, int64, *plan.Plan, error) {
	p, err := optimizer.Optimize(q, optimizer.Options{Catalogue: c})
	if err != nil {
		return 0, 0, nil, err
	}
	secs, n, _, err := timeRun(g, p, workers, false)
	return secs, n, p, err
}

// spectrumPoint is one executed plan of a spectrum.
type spectrumPoint struct {
	Kind    string
	Seconds float64
	Picked  bool
	// Capped marks plans that hit the match cap or the memory budget (the
	// paper's TL/Mm spectrum entries); Seconds then holds the time until
	// the cap.
	Capped bool
}

// spectrumMatchCap and runMemBudget keep pathological plans (giant
// binary joins on skewed graphs) from stalling the harness.
const spectrumMatchCap = int64(10_000_000)

// runCost prices a run's own counters in the optimizer's currency:
// i-cost plus its hash joins' build and probe rows.
func runCost(prof exec.Profile) float64 {
	return float64(prof.ICost) + optimizer.BuildCost*float64(prof.HashedTuples) + optimizer.RowCost*float64(prof.ProbedTuples)
}

// runSpectrum runs the cheapest maxPlans plans of q's spectrum and the
// optimizer's pick, and returns the spectrum's points and the pick's
// regret: its actual cost over the lowest actual cost of any uncapped
// run.
func runSpectrum(g *graph.Graph, c *catalogue.Catalogue, q *query.Graph, maxPlans int) ([]spectrumPoint, float64, error) {
	plans, err := optimizer.EnumeratePlans(q, optimizer.Options{Catalogue: c}, 12)
	if err != nil {
		return nil, 0, err
	}
	if maxPlans > 0 && len(plans) > maxPlans {
		plans = plans[:maxPlans]
	}
	picked, err := optimizer.Optimize(q, optimizer.Options{Catalogue: c})
	if err != nil {
		return nil, 0, err
	}
	run := func(kind string, p *plan.Plan) (spectrumPoint, float64, error) {
		start := time.Now()
		n, prof, mm, err := countBudgeted(g, p, spectrumMatchCap)
		pt := spectrumPoint{Kind: kind, Seconds: time.Since(start).Seconds()}
		switch {
		case mm, n >= spectrumMatchCap:
			pt.Capped = true
		case err != nil:
			return pt, 0, err
		}
		return pt, runCost(prof), nil
	}
	_, pickCost, err := run(picked.Kind(), picked)
	if err != nil {
		return nil, 0, err
	}
	lowest := pickCost
	var out []spectrumPoint
	marked := false
	for _, sp := range plans {
		pt, cost, err := run(sp.Kind, sp.Plan)
		if err != nil {
			return nil, 0, err
		}
		if !marked && sp.Cost <= picked.EstimatedCost+1e-9 && sp.Kind == picked.Kind() {
			pt.Picked = true
			marked = true
		}
		if !pt.Capped {
			lowest = min(lowest, cost)
		}
		out = append(out, pt)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Capped != out[j].Capped {
			return !out[i].Capped
		}
		return out[i].Seconds < out[j].Seconds
	})
	return out, pickCost / lowest, nil
}

// Quick runs a trimmed variant of the named experiment: the same code
// paths on a reduced workload, sized for the repository's testing.B
// benchmarks (bench_test.go at the module root). The full experiments are
// available through Run and cmd/gfbench.
func Quick(name string, w io.Writer, scale int) error {
	switch name {
	case "table3":
		return Table3(w, scale)
	case "table4":
		return Table4(w, scale)
	case "table5":
		return Table5(w, scale)
	case "table6":
		return Table6(w, scale)
	case "fig7":
		return fig7Run(w, scale, []fig7Workload{{"Amazon", 1, []int{4}}})
	case "fig8":
		return fig8Run(w, scale, []fig8Workload{{"Amazon", []int{3}}})
	case "fig9":
		return fig9Run(w, scale, []int{3, 8})
	case "table9":
		return table9Run(w, scale, []string{"Amazon"}, []int{1}, []int{1, 3, 8})
	case "fig11":
		return fig11Run(w, scale, []fig11Load{{"LiveJournal", 1}, {"Google", 14}})
	case "table10":
		return table10Run(w, scale, []dsCfg{{"Amazon", 1}}, []int{100, 1000}, 10)
	case "table11":
		return table11Run(w, scale, []dsCfg{{"Amazon", 1}}, []int{2, 3}, 10)
	case "table12":
		return table12Run(w, []int64{100_000}, []int{10, 15}, 4)
	case "table13":
		return Table13(w, scale)
	}
	return fmt.Errorf("bench: unknown experiment %q", name)
}
