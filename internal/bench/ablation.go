package bench

import (
	"fmt"
	"io"
	"time"

	"graphflow/internal/graph"
	"graphflow/internal/optimizer"
	"graphflow/internal/query"
)

// Ablations isolate design choices beyond the paper's own tables:
// cache-conscious costing, galloping intersections, beam width, and the
// adaptive ordering cap.

// Ablation is a runnable design-choice study.
type Ablation struct {
	Name  string
	About string
	Run   func(w io.Writer, scale int) error
}

// Ablations returns the registry.
func Ablations() []Ablation {
	return []Ablation{
		{"cache-conscious", "optimizer pick quality with and without cache-aware costing (Section 5.2)", AblationCacheConscious},
		{"galloping", "galloping vs pure merge intersections on skewed lists", AblationGalloping},
		{"beam-width", "plan cost vs beam width for large queries (Section 4.4)", AblationBeamWidth},
		{"adaptive-cap", "adaptive speedup vs the candidate-ordering cap", AblationAdaptiveCap},
	}
}

// RunAblation executes the named ablation ("all" for every one).
func RunAblation(name string, w io.Writer, scale int) error {
	if name == "all" {
		for _, a := range Ablations() {
			fmt.Fprintf(w, "=== %s: %s ===\n", a.Name, a.About)
			if err := a.Run(w, scale); err != nil {
				return fmt.Errorf("%s: %w", a.Name, err)
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	for _, a := range Ablations() {
		if a.Name == name {
			return a.Run(w, scale)
		}
	}
	return fmt.Errorf("bench: unknown ablation %q", name)
}

// AblationCacheConscious compares the runtime of the plan picked by the
// cache-conscious optimizer against the cache-oblivious one on the
// cache-sensitive queries (Q4, Q5): the paper's Section 5.2 claim is that
// obliviousness picks slower orderings.
func AblationCacheConscious(w io.Writer, scale int) error {
	g := dataset("Amazon", scale, 1)
	c := cat("Amazon", scale, 1)
	fmt.Fprintf(w, "%-6s %14s %14s\n", "query", "conscious(s)", "oblivious(s)")
	for _, j := range []int{4, 5} {
		q := query.Benchmark(j)
		conscious, err := optimizer.Optimize(q, optimizer.Options{Catalogue: c})
		if err != nil {
			return err
		}
		oblivious, err := optimizer.Optimize(q, optimizer.Options{Catalogue: c, CacheOblivious: true})
		if err != nil {
			return err
		}
		cs, _, _, err := timeRun(g, conscious, 1, false)
		if err != nil {
			return err
		}
		os, _, _, err := timeRun(g, oblivious, 1, false)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Q%-5d %14.3f %14.3f\n", j, cs, os)
	}
	return nil
}

// AblationGalloping compares the intersection kernel with galloping
// enabled (production) against a pure merge on a skewed web graph, via
// triangle closing where hub lists meet tiny lists.
func AblationGalloping(w io.Writer, scale int) error {
	g := dataset("BerkStan", scale, 1)
	// Collect list pairs from real extensions: edges' forward lists.
	type pair struct{ a, b []graph.VertexID }
	var pairs []pair
	g.Edges(func(src, dst graph.VertexID, _ graph.Label) bool {
		a := g.Neighbors(src, graph.Forward, 0, 0, nil)
		b := g.Neighbors(dst, graph.Forward, 0, 0, nil)
		if len(a) > 0 && len(b) > 0 {
			pairs = append(pairs, pair{a, b})
		}
		return len(pairs) < 200000
	})
	var out []graph.VertexID
	start := time.Now()
	var total int
	for _, p := range pairs {
		out = graph.Intersect(p.a, p.b, out)
		total += len(out)
	}
	gallop := time.Since(start).Seconds()
	start = time.Now()
	var total2 int
	for _, p := range pairs {
		out = mergeIntersect(p.a, p.b, out)
		total2 += len(out)
	}
	merge := time.Since(start).Seconds()
	if total != total2 {
		return fmt.Errorf("galloping results differ: %d vs %d", total, total2)
	}
	fmt.Fprintf(w, "pairs=%d galloping=%.3fs merge-only=%.3fs speedup=%.2fx\n",
		len(pairs), gallop, merge, merge/gallop)
	return nil
}

// mergeIntersect is the galloping-free reference kernel.
func mergeIntersect(a, b, out []graph.VertexID) []graph.VertexID {
	out = out[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// AblationBeamWidth sweeps the beam width of the large-query path on a
// 12-vertex query and reports estimated plan cost: wider beams should
// never produce worse plans.
func AblationBeamWidth(w io.Writer, scale int) error {
	c := cat("Amazon", scale, 1)
	// A 12-vertex "caterpillar": a path with pendant vertices.
	pattern := "a1->a2, a2->a3, a3->a4, a4->a5, a5->a6," +
		"a1->b1, a2->b2, a3->b3, a4->b4, a5->b5, a6->b6"
	q := query.MustParse(pattern)
	fmt.Fprintf(w, "%-6s %16s\n", "beam", "estimated cost")
	for _, bw := range []int{1, 2, 5, 10} {
		p, err := optimizer.Optimize(q, optimizer.Options{Catalogue: c, BeamWidth: bw})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-6d %16.1f\n", bw, p.EstimatedCost)
	}
	return nil
}

// AblationAdaptiveCap sweeps adaptive evaluation's candidate-ordering cap
// on the diamond-X query.
func AblationAdaptiveCap(w io.Writer, scale int) error {
	g := dataset("Google", scale, 1)
	c := cat("Google", scale, 1)
	q := query.Q4()
	plans, err := optimizer.EnumerateWCOPlans(q, optimizer.Options{Catalogue: c})
	if err != nil {
		return err
	}
	p := plans[len(plans)-1].Plan // the worst fixed plan benefits most
	fmt.Fprintf(w, "%-6s %12s %12s\n", "cap", "fixed(s)", "adaptive(s)")
	for _, cap := range []int{1, 2, 8, 48} {
		fixed, adapted, _, err := timeAdaptive(g, c, p, cap)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-6d %12.3f %12.3f\n", cap, fixed, adapted)
	}
	return nil
}
