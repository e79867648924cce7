package bench

import (
	"context"
	"fmt"
	"testing"

	"graphflow/internal/datagen"
	"graphflow/internal/exec"
	"graphflow/internal/graph"
	"graphflow/internal/plan"
	"graphflow/internal/query"
)

// MicroResult is one machine-readable benchmark row — the BENCH_*.json
// record format gfbench -json emits so the repo's perf trajectory is
// tracked across PRs.
type MicroResult struct {
	Name        string  `json:"name"`
	Graph       string  `json:"graph"`
	Query       string  `json:"query"`
	Engine      string  `json:"engine"` // "batch" (vectorized), "factorized" (batch + star-suffix factorization), "tuple" (oracle) or "batch-nocache" (batch with the intersection cache — and with it the carried extension sets — off); "optimizer" and "catalogue" on the planning rows, which execute nothing
	Workers     int     `json:"workers"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Matches     int64   `json:"matches"`
}

// microCase is one workload of the micro suite, run once per engine.
type microCase struct {
	name    string
	graph   string
	g       *graph.Graph
	pattern string
	order   []int
	workers int
}

// wcoPlan builds the WCO plan for q in the given connected vertex order.
func wcoPlan(q *query.Graph, order []int) (*plan.Plan, error) {
	var first *query.Edge
	for i := range q.Edges {
		e := q.Edges[i]
		if (e.From == order[0] && e.To == order[1]) || (e.From == order[1] && e.To == order[0]) {
			first = &e
			break
		}
	}
	if first == nil {
		return nil, fmt.Errorf("order %v does not start with an edge", order)
	}
	var node plan.Node = plan.NewScan(q, *first)
	for _, v := range order[2:] {
		ext, err := plan.NewExtend(q, node, v)
		if err != nil {
			return nil, err
		}
		node = ext
	}
	return &plan.Plan{Query: q, Root: node}, nil
}

// microCases is the fixed workload set: the paper's core query shapes
// plus the deep skew-heavy pipelines the vectorized engine targets.
func microCases(scale int) []microCase {
	web := datagen.Web(datagen.WebConfig{N: 2500 * scale, OutDeg: 8, Copy: 0.6, Seed: 5})
	skew := datagen.Web(datagen.WebConfig{N: 8000 * scale, OutDeg: 10, Copy: 0.85, Seed: 9})
	return []microCase{
		{
			name: "triangle", graph: "Epinions", g: datagen.Epinions(scale),
			pattern: "a->b, b->c, a->c", order: []int{0, 1, 2}, workers: 1,
		},
		{
			name: "diamondX", graph: "Amazon", g: datagen.Amazon(scale),
			pattern: "a->b, a->c, b->c, b->d, c->d", order: []int{0, 1, 2, 3}, workers: 1,
		},
		{
			name: "tri-star", graph: "Epinions", g: datagen.Epinions(scale),
			pattern: "a->b, a->c, a->d", order: []int{0, 1, 2, 3}, workers: 1,
		},
		{
			name: "deep-tristar", graph: "Web-skewed", g: web,
			pattern: "a->b, a->c, b->c, a->d, a->e, a->f", order: []int{0, 1, 2, 3, 4, 5}, workers: 1,
		},
		{
			name: "deep-chain", graph: "Web-skewed", g: web,
			pattern: "a->b, a->c, b->c, c->d, d->e, e->f", order: []int{0, 1, 2, 3, 4, 5}, workers: 1,
		},
		{
			name: "skew-parallel", graph: "Web-hubheavy", g: skew,
			pattern: "a->b, a->c, b->c, c->d, d->e, e->f", order: []int{0, 1, 2, 3, 4, 5}, workers: 4,
		},
		{
			name: "clique4", graph: "Web-skewed", g: web,
			pattern: "a->b, a->c, b->c, a->d, b->d, c->d", order: []int{0, 1, 2, 3}, workers: 1,
		},
		{
			name: "clique5", graph: "Web-skewed", g: web,
			pattern: "a->b, a->c, b->c, a->d, b->d, c->d, a->e, b->e, c->e, d->e", order: []int{0, 1, 2, 3, 4}, workers: 1,
		},
	}
}

// Micro runs the machine-readable micro suite: every workload under the
// vectorized engine (with star-suffix factorization off and on) and the
// tuple-at-a-time oracle, plus the vectorized engine with the
// intersection cache off (on the cliques, cache on vs off brackets what
// carrying extension sets between stages saves), fast counting, reporting
// ns/op, bytes/op, allocs/op and the (engine-independent) match count.
// The planning rows (optimize/v4..v6, catalogue/build) close the list.
func Micro(scale int) ([]MicroResult, error) {
	if scale < 1 {
		scale = 1
	}
	var out []MicroResult
	for _, mc := range microCases(scale) {
		q, err := query.Parse(mc.pattern)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mc.name, err)
		}
		p, err := wcoPlan(q, mc.order)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mc.name, err)
		}
		cp, err := exec.Compile(mc.g, p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mc.name, err)
		}
		for _, engine := range []string{"batch", "factorized", "tuple", "batch-nocache"} {
			cfg := exec.RunConfig{
				FastCount:    true,
				Workers:      mc.workers,
				TupleAtATime: engine == "tuple",
				Factorized:   engine == "factorized",
				DisableCache: engine == "batch-nocache",
			}
			matches, _, err := cp.CountCtx(context.Background(), cfg)
			if err != nil {
				return nil, fmt.Errorf("%s (%s): %w", mc.name, engine, err)
			}
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := cp.CountCtx(context.Background(), cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
			out = append(out, MicroResult{
				Name:        mc.name,
				Graph:       mc.graph,
				Query:       mc.pattern,
				Engine:      engine,
				Workers:     mc.workers,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
				Matches:     matches,
			})
		}
	}
	return append(out, planningRows(scale)...), nil
}
