package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"graphflow/internal/baseline"
	"graphflow/internal/catalogue"
	"graphflow/internal/datagen"
	"graphflow/internal/exec"
	"graphflow/internal/ghd"
	"graphflow/internal/graph"
	"graphflow/internal/optimizer"
	"graphflow/internal/plan"
	"graphflow/internal/query"
)

// Table3 reproduces the intersection-cache experiment: every WCO plan of
// the diamond-X query (Q4) on the Amazon-like graph, cache on vs off.
func Table3(w io.Writer, scale int) error {
	g := dataset("Amazon", scale, 1)
	c := cat("Amazon", scale, 1)
	plans, err := optimizer.EnumerateWCOPlans(query.Q4(), optimizer.Options{Catalogue: c})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %12s %12s %10s\n", "QVO", "cache-on(s)", "cache-off(s)", "hits")
	for _, wp := range plans {
		on, _, prof, err := timeRun(g, wp.Plan, 1, false)
		if err != nil {
			return err
		}
		off, _, _, err := timeRun(g, wp.Plan, 1, true)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %12.3f %12.3f %10d\n", orderName(wp.Order), on, off, prof.CacheHits)
	}
	return nil
}

// qvoTable runs every WCO plan of q on the named datasets and prints the
// paper's (time, partial matches, i-cost) rows. Used by Tables 4-6.
func qvoTable(w io.Writer, q *query.Graph, datasets []string, scale int, noCache bool, only []string) error {
	for _, name := range datasets {
		g := dataset(name, scale, 1)
		c := cat(name, scale, 1)
		plans, err := optimizer.EnumerateWCOPlans(q, optimizer.Options{Catalogue: c})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "--- %s ---\n", name)
		fmt.Fprintf(w, "%-14s %10s %12s %14s\n", "QVO", "time(s)", "part.m.", "i-cost")
		for _, wp := range plans {
			qname := orderName(wp.Order)
			if only != nil {
				keep := false
				for _, o := range only {
					if o == qname {
						keep = true
					}
				}
				if !keep {
					continue
				}
			}
			secs, _, prof, err := timeRun(g, wp.Plan, 1, noCache)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-14s %10.3f %12d %14d\n", qname, secs, prof.Intermediate, prof.ICost)
		}
	}
	return nil
}

// Table4 reproduces the adjacency-list-direction experiment: the three
// QVOs of the asymmetric triangle on web-like and social graphs.
func Table4(w io.Writer, scale int) error {
	return qvoTable(w, query.Q1(), []string{"BerkStan", "LiveJournal"}, scale, false, nil)
}

// Table5 reproduces the intermediate-result experiment: tailed-triangle
// QVOs (EDGE-TRIANGLE vs EDGE-2PATH groups), cache disabled as in the
// paper.
func Table5(w io.Writer, scale int) error {
	return qvoTable(w, query.Q3(), []string{"Amazon", "Epinions"}, scale, true, nil)
}

// Table6 reproduces the cache-hit experiment: the two representative QVO
// groups of the symmetric diamond-X.
func Table6(w io.Writer, scale int) error {
	return qvoTable(w, query.Q5(), []string{"Amazon", "Epinions"}, scale, false,
		[]string{"a2a3a1a4", "a2a3a4a1", "a1a2a3a4", "a2a3a2a4"})
}

// table9Queries are the queries of the EmptyHeaded comparison.
var table9Queries = []int{1, 3, 5, 7, 8, 9, 12, 13}

// Table9 reproduces the Graphflow vs EmptyHeaded comparison: for each
// query and dataset, Graphflow's optimized plan vs the EH plan with bad
// (lexicographic) orderings and with good (Graphflow-chosen) orderings.
// TL marks runs beyond the per-run timeout.
func Table9(w io.Writer, scale int) error {
	return table9Run(w, scale, []string{"Amazon", "Google", "Epinions"}, []int{1, 2}, table9Queries)
}

// table9Run is the parameterised core of Table9, reused by Quick.
func table9Run(w io.Writer, scale int, datasets []string, labelCounts, queries []int) error {
	const timeout = 60 * time.Second
	for _, labels := range labelCounts {
		fmt.Fprintf(w, "--- %d label(s) ---\n", labels)
		fmt.Fprintf(w, "%-12s %-6s %10s %10s %10s\n", "dataset", "query", "EH-b(s)", "EH-g(s)", "GF(s)")
		for _, ds := range datasets {
			g := dataset(ds, scale, labels)
			c := cat(ds, scale, labels)
			for _, j := range queries {
				q := labelQuery(query.Benchmark(j), labels)
				ehb := runEH(g, c, q, EHWorst, timeout)
				ehg := runEH(g, c, q, EHGood, timeout)
				gf := runGF(g, c, q, timeout)
				fmt.Fprintf(w, "%-12s Q%-5d %10s %10s %10s\n", ds, j, ehb, ehg, gf)
			}
		}
	}
	return nil
}

// table9 caps bound individual runs: a run producing more than matchCap
// results is reported TL (the paper's 30-minute limit scaled to our
// datasets); a hash-join build side over buildCap rows is reported Mm.
const (
	table9MatchCap = int64(20_000_000)
	table9BuildCap = int64(5_000_000)
)

func fmtSecs(secs float64, err error, budget time.Duration) string {
	if err != nil {
		return "err"
	}
	if secs > budget.Seconds() {
		return "TL"
	}
	return fmt.Sprintf("%.3f", secs)
}

// runCapped executes p under the Table 9 caps, mapping outcomes onto the
// paper's TL/Mm notation.
func runCapped(g *graph.Graph, p *plan.Plan, budget time.Duration) string {
	start := time.Now()
	n, _, err := countPlan(g, p, exec.RunConfig{MaxBuildRows: table9BuildCap}, table9MatchCap)
	secs := time.Since(start).Seconds()
	if err == exec.ErrBuildTooLarge {
		return "Mm"
	}
	if err != nil {
		return "err"
	}
	if n >= table9MatchCap {
		return "TL"
	}
	return fmtSecs(secs, nil, budget)
}

func runGF(g *graph.Graph, c *catalogue.Catalogue, q *query.Graph, budget time.Duration) string {
	p, err := optimizer.Optimize(q, optimizer.Options{Catalogue: c})
	if err != nil {
		return "err"
	}
	return runCapped(g, p, budget)
}

// runEH evaluates q with the EmptyHeaded strategy: the minimum-width GHD
// with the given bag-ordering mode.
func runEH(g *graph.Graph, c *catalogue.Catalogue, q *query.Graph, mode EHOrderMode, budget time.Duration) string {
	p, err := BuildEHPlan(q, c, mode)
	if err != nil {
		return "err"
	}
	return runCapped(g, p, budget)
}

// EHOrderMode selects the bag query-vertex orderings of an EmptyHeaded
// plan. EmptyHeaded itself does not optimise orderings — it uses the
// lexicographic order of the user's variable names — so by renaming
// variables a user can force any ordering. The paper's EH-b rows use the
// worst-performing ordering of the picked GHD, EH-g the ordering
// Graphflow's cost model picks (Section 8.4).
type EHOrderMode int

const (
	// EHLexicographic is EmptyHeaded's default: variable-name order.
	EHLexicographic EHOrderMode = iota
	// EHGood plugs Graphflow's best WCO ordering into each bag.
	EHGood
	// EHWorst plugs the worst estimated ordering into each bag.
	EHWorst
)

// BuildEHPlan constructs the EmptyHeaded-style plan for q: the min-width
// GHD with bag orderings chosen per mode.
func BuildEHPlan(q *query.Graph, c *catalogue.Catalogue, mode EHOrderMode) (*plan.Plan, error) {
	ds := ghd.MinWidth(ghd.Enumerate(q, 2))
	if len(ds) == 0 {
		return nil, fmt.Errorf("no GHD")
	}
	d := ds[0]
	orders := ghd.LexicographicOrders(q, d)
	if mode != EHLexicographic {
		for i, bag := range d.Bags {
			if o := rankedBagOrder(q, c, bag, mode == EHWorst); o != nil {
				orders[i] = o
			}
		}
	}
	return ghd.BuildPlan(q, d, orders)
}

// rankedBagOrder returns Graphflow's best (or worst) WCO ordering for the
// bag's projection, mapped back to whole-query vertex indices.
func rankedBagOrder(q *query.Graph, c *catalogue.Catalogue, bag query.Mask, worst bool) []int {
	sub, orig := q.Project(bag)
	plans, err := optimizer.EnumerateWCOPlans(sub, optimizer.Options{Catalogue: c})
	if err != nil || len(plans) == 0 {
		return nil
	}
	pick := plans[0]
	if worst {
		pick = plans[len(plans)-1]
	}
	order := make([]int, len(pick.Order))
	for i, v := range pick.Order {
		order[i] = orig[v]
	}
	return order
}

// Table10 reproduces the q-error vs sample-size experiment: catalogues
// with z in {100, 500, 1000, 5000} on the Amazon-like (unlabeled) and
// Google-like (3-label) graphs, evaluated on random 5-vertex queries. Rows
// are cumulative q-error distributions plus construction time.
func Table10(w io.Writer, scale int) error {
	return table10Run(w, scale, []dsCfg{{"Amazon", 1}, {"Google", 3}}, []int{100, 500, 1000, 5000}, 24)
}

// dsCfg names a dataset with a label count.
type dsCfg struct {
	name   string
	labels int
}

// table10Run is the parameterised core of Table10, reused by Quick.
func table10Run(w io.Writer, scale int, cfgs []dsCfg, zs []int, nQueries int) error {
	taus := []float64{2, 3, 5, 10, 20}
	for _, cfg := range cfgs {
		g := dataset(cfg.name, scale, cfg.labels)
		queries, truths := qerrorWorkload(g, nQueries)
		fmt.Fprintf(w, "--- %s (%d labels), %d queries ---\n", cfg.name, cfg.labels, len(queries))
		fmt.Fprintf(w, "%-6s %9s", "z", "build(s)")
		for _, tau := range taus {
			fmt.Fprintf(w, " %8s", fmt.Sprintf("<=%.0f", tau))
		}
		fmt.Fprintf(w, " %8s\n", ">20")
		for _, z := range zs {
			start := time.Now()
			c := catalogue.Build(g, catalogue.Config{H: 3, Z: z, MaxInstances: 500, Seed: 9})
			buildSecs := time.Since(start).Seconds()
			dist := qerrorDistribution(c, nil, g, queries, truths, taus)
			fmt.Fprintf(w, "%-6d %9.2f", z, buildSecs)
			for _, d := range dist {
				fmt.Fprintf(w, " %8d", d)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// Table11 reproduces the q-error vs h experiment, with the
// PostgreSQL-style estimator as the baseline row.
func Table11(w io.Writer, scale int) error {
	return table11Run(w, scale, []dsCfg{{"Amazon", 1}, {"Google", 3}}, []int{2, 3, 4}, 24)
}

// table11Run is the parameterised core of Table11, reused by Quick.
func table11Run(w io.Writer, scale int, cfgs []dsCfg, hs []int, nQueries int) error {
	taus := []float64{2, 3, 5, 10, 20}
	for _, cfg := range cfgs {
		g := dataset(cfg.name, scale, cfg.labels)
		queries, truths := qerrorWorkload(g, nQueries)
		fmt.Fprintf(w, "--- %s (%d labels), %d queries ---\n", cfg.name, cfg.labels, len(queries))
		fmt.Fprintf(w, "%-6s %9s", "h", "entries")
		for _, tau := range taus {
			fmt.Fprintf(w, " %8s", fmt.Sprintf("<=%.0f", tau))
		}
		fmt.Fprintf(w, " %8s\n", ">20")
		for _, h := range hs {
			c := catalogue.Build(g, catalogue.Config{H: h, Z: 1000, MaxInstances: 500, Seed: 9})
			dist := qerrorDistribution(c, nil, g, queries, truths, taus)
			fmt.Fprintf(w, "%-6d %9d", h, c.Len())
			for _, d := range dist {
				fmt.Fprintf(w, " %8d", d)
			}
			fmt.Fprintln(w)
		}
		// PostgreSQL-style baseline.
		dist := qerrorDistribution(nil, func(q *query.Graph) float64 { return baseline.PGEstimate(g, q) }, g, queries, truths, taus)
		fmt.Fprintf(w, "%-6s %9s", "PG", "-")
		for _, d := range dist {
			fmt.Fprintf(w, " %8d", d)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// qerrorWorkload draws random 5-vertex queries from g and computes their
// true cardinalities once (shared across catalogue configurations).
func qerrorWorkload(g *graph.Graph, n int) ([]*query.Graph, []float64) {
	rng := rand.New(rand.NewSource(12345))
	truthCat := catalogue.Build(g, catalogue.Config{H: 2, Z: 200, MaxInstances: 200, Seed: 1})
	var queries []*query.Graph
	var truths []float64
	for len(queries) < n {
		dense := len(queries)%2 == 1
		q := RandomQueryFromGraph(g, 5, dense, rng)
		if q == nil {
			continue
		}
		p, err := optimizer.Optimize(q, optimizer.Options{Catalogue: truthCat})
		if err != nil {
			continue
		}
		count, _, err := countPlan(g, p, exec.RunConfig{}, 0)
		if err != nil || count == 0 {
			continue
		}
		queries = append(queries, q)
		truths = append(truths, float64(count))
	}
	return queries, truths
}

// qerrorDistribution returns cumulative counts of queries within each
// q-error bound, plus the count beyond the last bound.
func qerrorDistribution(c *catalogue.Catalogue, estFn func(*query.Graph) float64, g *graph.Graph, queries []*query.Graph, truths []float64, taus []float64) []int {
	out := make([]int, len(taus)+1)
	for i, q := range queries {
		var est float64
		if estFn != nil {
			est = estFn(q)
		} else {
			est = c.EstimateCardinality(q)
		}
		qe := baseline.QError(est, truths[i])
		placed := false
		for t, tau := range taus {
			if qe <= tau {
				for tt := t; tt < len(taus); tt++ {
					out[tt]++
				}
				placed = true
				break
			}
		}
		if !placed {
			out[len(taus)]++
		}
	}
	return out
}

// Table12 reproduces the CFL comparison: random sparse and dense query
// sets of 10, 15 and 20 vertices on the human-like labelled graph, with
// output caps, reporting average runtimes per query set.
func Table12(w io.Writer, scale int) error {
	return table12Run(w, []int64{100_000, 1_000_000}, []int{10, 15, 20}, 10)
}

// table12Run is the parameterised core of Table12, reused by Quick.
func table12Run(w io.Writer, caps []int64, sizes []int, queriesPerSet int) error {
	g := datagen.Human()
	c := catalogue.Build(g, catalogue.Config{H: 2, Z: 500, MaxInstances: 300, Seed: 77})
	rng := rand.New(rand.NewSource(4567))

	for _, capN := range caps {
		fmt.Fprintf(w, "--- output cap %d ---\n", capN)
		fmt.Fprintf(w, "%-8s %6s %12s %12s\n", "set", "n", "GF(s)", "CFL(s)")
		for _, dense := range []bool{false, true} {
			for _, nv := range sizes {
				var gfTotal, cflTotal float64
				ran := 0
				for i := 0; i < queriesPerSet; i++ {
					q := RandomQueryFromGraph(g, nv, dense, rng)
					if q == nil {
						continue
					}
					p, err := optimizer.Optimize(q, optimizer.Options{Catalogue: c})
					if err != nil {
						continue
					}
					start := time.Now()
					gfCount, _, err := countPlan(g, p, exec.RunConfig{}, capN)
					if err != nil {
						continue
					}
					gfSecs := time.Since(start).Seconds()
					start = time.Now()
					cflCount := baseline.CFLCountUpTo(g, q, capN)
					cflSecs := time.Since(start).Seconds()
					if gfCount != cflCount {
						// Caps may truncate differently only at the cap.
						if gfCount < capN && cflCount < capN {
							return fmt.Errorf("table12: GF=%d CFL=%d disagree on %s", gfCount, cflCount, q)
						}
					}
					gfTotal += gfSecs
					cflTotal += cflSecs
					ran++
				}
				label := "sparse"
				if dense {
					label = "dense"
				}
				if ran == 0 {
					continue
				}
				fmt.Fprintf(w, "%-8s %6d %12.4f %12.4f\n", label, nv, gfTotal/float64(ran), cflTotal/float64(ran))
			}
		}
	}
	return nil
}

// Table13 reproduces the Neo4j-style comparison: the edge-at-a-time
// binary-join engine (open cycles, no intersections) vs Graphflow on Q1,
// Q2 and Q4.
func Table13(w io.Writer, scale int) error {
	fmt.Fprintf(w, "%-12s %-6s %12s %14s %12s\n", "dataset", "query", "GF(s)", "BJ-baseline(s)", "ratio")
	for _, ds := range []string{"Amazon", "Epinions"} {
		g := dataset(ds, scale, 1)
		c := cat(ds, scale, 1)
		for _, j := range []int{1, 2, 4} {
			q := query.Benchmark(j)
			gfSecs, gfCount, _, err := optimizeAndRun(g, c, q, 1)
			if err != nil {
				return err
			}
			start := time.Now()
			bjCount, _, err := baseline.BJCount(g, q, baseline.BJConfig{MaxIntermediate: 200_000_000})
			bjSecs := time.Since(start).Seconds()
			bjStr := fmt.Sprintf("%.3f", bjSecs)
			ratio := "-"
			if err == baseline.ErrTooLarge {
				bjStr = "Mm"
			} else if err != nil {
				return err
			} else {
				if bjCount != gfCount {
					return fmt.Errorf("table13: GF=%d BJ=%d disagree on Q%d/%s", gfCount, bjCount, j, ds)
				}
				if gfSecs > 0 {
					ratio = fmt.Sprintf("%.1fx", bjSecs/gfSecs)
				}
			}
			fmt.Fprintf(w, "%-12s Q%-5d %12.3f %14s %12s\n", ds, j, gfSecs, bjStr, ratio)
		}
	}
	return nil
}
