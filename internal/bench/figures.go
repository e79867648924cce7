package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"graphflow/internal/adaptive"
	"graphflow/internal/catalogue"
	"graphflow/internal/exec"
	"graphflow/internal/ghd"
	"graphflow/internal/graph"
	"graphflow/internal/optimizer"
	"graphflow/internal/plan"
	"graphflow/internal/query"
)

// fig7Workloads mirrors Section 8.2: spectra are generated on the
// unlabeled Amazon-like graph, the Epinions-like graph with 3 labels, and
// the Google-like graph with 5 labels. Q12/Q13 on Epinions are omitted as
// in the paper (prohibitively many plans at spectrum granularity).
type fig7Workload struct {
	dataset string
	labels  int
	queries []int
}

var fig7Workloads = []fig7Workload{
	{"Amazon", 1, []int{1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13}},
	{"Epinions", 3, []int{1, 2, 3, 4, 5, 6, 7, 8, 11}},
	{"Google", 5, []int{1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13}},
}

// Fig7 regenerates the plan-spectrum charts: for each query/dataset, the
// runtime of every plan in the spectrum (classified W/B/H), with the
// optimizer's chosen plan marked with '*', and the pick's regret: its
// actual cost (runCost: i-cost plus hash-join rows) over the lowest in
// the spectrum. The paper's claim to check: the pick is optimal or
// near-optimal across spectra, and different plan classes win on
// different queries.
func Fig7(w io.Writer, scale int) error {
	return fig7Run(w, scale, fig7Workloads)
}

// fig7Run is the parameterised core of Fig7, reused by Quick.
func fig7Run(w io.Writer, scale int, workloads []fig7Workload) error {
	for _, wl := range workloads {
		g := dataset(wl.dataset, scale, wl.labels)
		c := cat(wl.dataset, scale, wl.labels)
		for _, j := range wl.queries {
			q := labelQuery(query.Benchmark(j), wl.labels)
			points, regret, err := runSpectrum(g, c, q, 20)
			if err != nil {
				return fmt.Errorf("Q%d on %s: %w", j, wl.dataset, err)
			}
			fmt.Fprintf(w, "Q%d on %s (%d labels): %d plans, pick regret %.2f\n", j, wl.dataset, wl.labels, len(points), regret)
			for _, pt := range points {
				mark := " "
				if pt.Picked {
					mark = "*"
				}
				suffix := ""
				if pt.Capped {
					suffix = " (capped)"
				}
				fmt.Fprintf(w, "  %s %-7s %8.3fs%s\n", mark, pt.Kind, pt.Seconds, suffix)
			}
		}
	}
	return nil
}

// Fig8 regenerates the adaptive spectra: for each WCO plan of the
// adaptable queries, fixed vs adaptive runtime. The paper's claims: the
// spread between best and worst narrows, and most plans improve (cliques
// are the exception).
func Fig8(w io.Writer, scale int) error {
	return fig8Run(w, scale, []fig8Workload{
		{"Amazon", []int{2, 3, 4, 5, 6, 10}},
		{"Epinions", []int{2, 3, 4, 5, 6}},
		{"Google", []int{2, 3, 4, 5, 6, 10}},
	})
}

type fig8Workload struct {
	dataset string
	queries []int
}

// fig8Run is the parameterised core of Fig8, reused by Quick.
func fig8Run(w io.Writer, scale int, workloads []fig8Workload) error {
	for _, wl := range workloads {
		g := dataset(wl.dataset, scale, 1)
		c := cat(wl.dataset, scale, 1)
		for _, j := range wl.queries {
			q := query.Benchmark(j)
			plans, err := optimizer.EnumerateWCOPlans(q, optimizer.Options{Catalogue: c})
			if err != nil {
				return err
			}
			if len(plans) > 12 {
				plans = plans[:12]
			}
			fmt.Fprintf(w, "Q%d on %s: %d WCO plans\n", j, wl.dataset, len(plans))
			for _, wp := range plans {
				fixedSecs, adaptSecs, adaptable, err := timeAdaptive(g, c, wp.Plan, adaptive.MaxOrderings)
				if err != nil {
					return err
				}
				if !adaptable {
					continue
				}
				fmt.Fprintf(w, "  %-14s fixed %8.3fs adaptive %8.3fs (%.2fx)\n",
					orderName(wp.Order), fixedSecs, adaptSecs, fixedSecs/adaptSecs)
			}
		}
	}
	return nil
}

// timeAdaptive counts p's matches with its fixed ordering and with
// adaptive re-ordering over at most maxOrderings candidates — the same
// compiled pipelines under the same RunConfig, so the two times differ by
// the orderings taken and the routing, nothing else. adaptable is false
// when there was nothing to choose between and the fixed plan ran twice.
func timeAdaptive(g *graph.Graph, c *catalogue.Catalogue, p *plan.Plan, maxOrderings int) (fixed, adapted float64, adaptable bool, err error) {
	cp, err := exec.Compile(g, p)
	if err != nil {
		return 0, 0, false, err
	}
	timeCount := func(cp *exec.CompiledPlan) (float64, int64, error) {
		start := time.Now()
		n, _, err := cp.CountCtx(context.Background(), exec.RunConfig{})
		return time.Since(start).Seconds(), n, err
	}
	fixed, want, err := timeCount(cp)
	if err != nil {
		return 0, 0, false, err
	}
	routes := optimizer.Routes(p, c, maxOrderings)
	adapted, got, err := timeCount(cp.Adaptive(routes))
	if err == nil && got != want {
		err = fmt.Errorf("adaptive evaluation counted %d matches, the fixed plan %d", got, want)
	}
	return fixed, adapted, routes != nil, err
}

// Fig9 regenerates the EmptyHeaded spectra: for Q3, Q7 and Q8, every
// min-width GHD under a sample of bag orderings, next to Graphflow's own
// spectrum. The paper's claim: EH's spread is wide because it does not
// optimize QVOs; Graphflow's best beats EH's best or matches it.
func Fig9(w io.Writer, scale int) error {
	return fig9Run(w, scale, []int{3, 7, 8})
}

// fig9Run is the parameterised core of Fig9, reused by Quick.
func fig9Run(w io.Writer, scale int, queries []int) error {
	g := dataset("Amazon", scale, 1)
	c := cat("Amazon", scale, 1)
	for _, j := range queries {
		q := query.Benchmark(j)
		// Graphflow spectrum.
		gf, _, err := runSpectrum(g, c, q, 12)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Q%d Graphflow spectrum (%d plans):", j, len(gf))
		for _, pt := range gf {
			fmt.Fprintf(w, " %.3f", pt.Seconds)
		}
		fmt.Fprintln(w)
		// EH spectrum: min-width GHDs x per-bag ordering variants.
		times, err := ehSpectrum(g, c, q, 12)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Q%d EmptyHeaded spectrum (%d plans):", j, len(times))
		for _, t := range times {
			fmt.Fprintf(w, " %.3f", t)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// ehSpectrum evaluates up to maxPlans EH plan variants: every min-width
// GHD with every combination of per-bag WCO orderings (the effect of
// issuing the query with different variable names).
func ehSpectrum(g *graph.Graph, c *catalogue.Catalogue, q *query.Graph, maxPlans int) ([]float64, error) {
	var times []float64
	for _, d := range ghd.MinWidth(ghd.Enumerate(q, 2)) {
		// Per-bag ordering candidates.
		bagOrders := make([][][]int, len(d.Bags))
		for i, bag := range d.Bags {
			sub, orig := q.Project(bag)
			plans, err := optimizer.EnumerateWCOPlans(sub, optimizer.Options{Catalogue: c})
			if err != nil {
				return nil, err
			}
			for _, wp := range plans {
				order := make([]int, len(wp.Order))
				for k, v := range wp.Order {
					order[k] = orig[v]
				}
				bagOrders[i] = append(bagOrders[i], order)
				if len(bagOrders[i]) >= 4 {
					break
				}
			}
		}
		// Cartesian product of bag orderings.
		var combos [][][]int
		var recCombo func(i int, cur [][]int)
		recCombo = func(i int, cur [][]int) {
			if len(combos) >= maxPlans {
				return
			}
			if i == len(bagOrders) {
				combos = append(combos, append([][]int(nil), cur...))
				return
			}
			for _, o := range bagOrders[i] {
				recCombo(i+1, append(cur, o))
			}
		}
		recCombo(0, nil)
		for _, combo := range combos {
			orders := map[int][]int{}
			for i, o := range combo {
				orders[i] = o
			}
			p, err := ghd.BuildPlan(q, d, orders)
			if err != nil {
				continue
			}
			secs, _, _, err := timeRun(g, p, 1, false)
			if err != nil {
				return nil, err
			}
			times = append(times, secs)
			if len(times) >= maxPlans {
				return times, nil
			}
		}
	}
	return times, nil
}

// Fig11 regenerates the scalability experiment: worker counts 1..2x cores
// on the heavy queries (Q1 on Twitter- and LiveJournal-like graphs, Q2 on
// LiveJournal-like, Q14 on Google-like). The paper's claim: near-linear
// scaling to the physical core count.
func Fig11(w io.Writer, scale int) error {
	return fig11Run(w, scale, []fig11Load{
		{"Twitter", 1},
		{"LiveJournal", 1},
		{"LiveJournal", 2},
		{"Google", 14},
	})
}

type fig11Load struct {
	dataset string
	qj      int
}

// fig11Run is the parameterised core of Fig11, reused by Quick.
func fig11Run(w io.Writer, scale int, runs []fig11Load) error {
	workers := []int{1, 2, 4, 8, 16, 32}
	maxW := runtime.NumCPU() * 2
	for _, r := range runs {
		g := dataset(r.dataset, scale, 1)
		c := cat(r.dataset, scale, 1)
		q := query.Benchmark(r.qj)
		p, err := optimizer.Optimize(q, optimizer.Options{Catalogue: c})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Q%d on %s (cores=%d):\n", r.qj, r.dataset, runtime.NumCPU())
		var base float64
		for _, nw := range workers {
			if nw > maxW {
				break
			}
			start := time.Now()
			if _, _, err := countPlan(g, p, exec.RunConfig{Workers: nw}, 0); err != nil {
				return err
			}
			secs := time.Since(start).Seconds()
			if nw == 1 {
				base = secs
			}
			speedup := base / secs
			fmt.Fprintf(w, "  workers=%-3d %8.3fs  speedup %.1fx\n", nw, secs, speedup)
		}
	}
	return nil
}
