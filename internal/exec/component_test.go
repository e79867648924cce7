package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"graphflow/internal/graph"
	"graphflow/internal/plan"
	"graphflow/internal/query"
	"graphflow/internal/resource"
)

// componentPlans builds WCO plans whose factorized tails hold components
// of two or more vertices, one per path of the component tail.
func componentPlans(t testing.TB) map[string]*plan.Plan {
	t.Helper()
	chain := func(pattern string) *plan.Plan {
		q := query.MustParse(pattern)
		return buildWCO(t, q, chainOrder(q.NumVertices()))
	}
	return map[string]*plan.Plan{
		// Two triangles sharing a: the wing {d,e} is the prefix's {b,c} over
		// a, counted off a's run of triangles.
		"bowtie": chain("a->b, b->c, a->c, a->d, d->e, a->e"),
		// Three triangles sharing a: two wings counted off a's run.
		"windmill": chain("a->b, b->c, a->c, a->d, d->e, a->e, a->f, f->g, a->g"),
		// A bowtie whose wings carry different labels: no wing is the
		// other's twin, so {d,e} is enumerated once per a and cached.
		"bowtieLabelled": chain("a->b, b->c, a->c, a->d, d-[1]->e, a->e"),
		// Two 4-cycles sharing the edge a->b: two identical components on
		// the separator {a,b}, one enumerated, the other sharing its count.
		"cycles": chain("a->b, b->c, c->d, d->a, b->e, e->f, f->a"),
		// A leaf between two wings that differ: a product of a set and two
		// enumerated components, and an unfold over three.
		"mixed": chain("a->b, b->c, a->c, a->h, a->d, d->e, a->e, a->f, f-[1]->g, a->g"),
	}
}

// labelledRandomGraph is smallRandomGraph with one edge in four
// labelled 1.
func labelledRandomGraph(seed int64, n, deg int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for d := 0; d < deg; d++ {
			b.AddEdge(graph.VertexID(v), graph.VertexID(rng.Intn(n)), graph.Label(rng.Intn(4)/3))
		}
	}
	return b.MustBuild()
}

// TestComponentTailShapes pins what plan.TailOf finds on the plans above.
func TestComponentTailShapes(t *testing.T) {
	type comp struct {
		vertices   string
		twin       int
		prefixTwin bool
	}
	want := map[string][]comp{
		"bowtie":         {{"d,e", -1, true}},
		"windmill":       {{"d,e", -1, true}, {"f,g", -1, true}},
		"bowtieLabelled": {{"c", -1, false}, {"d,e", -1, false}},
		"cycles":         {{"c,d", -1, false}, {"e,f", 0, false}},
		"mixed":          {{"h", -1, false}, {"d,e", -1, true}, {"f,g", -1, false}},
	}
	for name, p := range componentPlans(t) {
		var tail plan.Tail
		plan.TailOf(&tail, p.Query, p.Root, true)
		var got []comp
		for _, c := range tail.Components() {
			var names []string
			for v := range p.Query.Vertices {
				if c.Vertices&query.Bit(v) != 0 {
					names = append(names, p.Query.Vertices[v].Name)
				}
			}
			got = append(got, comp{strings.Join(names, ","), c.Twin, c.PrefixTwin})
		}
		if !slices.Equal(got, want[name]) {
			t.Errorf("%s: tail components %v, want %v", name, got, want[name])
		}
		// The adaptive router's tails count nothing off runs.
		var noRuns plan.Tail
		if plan.TailOf(&noRuns, p.Query, p.Root, false); slices.ContainsFunc(noRuns.Components(), func(c plan.Component) bool { return c.PrefixTwin }) {
			t.Errorf("%s: a tail found without prefix twins has one", name)
		}
	}
}

// TestComponentTailMatchesReference holds every component path to
// query.RefCount and RefEnumerate: the count sequentially and on four
// workers at several batch sizes, exact limits, and the rows — which a
// sequential run must emit in the order of the non-factorized chain.
func TestComponentTailMatchesReference(t *testing.T) {
	g := labelledRandomGraph(41, 24, 8)
	for name, p := range componentPlans(t) {
		cp := Must(t, g, p)
		want := refCount(g, p)
		if want < 10 {
			t.Fatalf("%s: %d matches; the shape is vacuous here", name, want)
		}
		for _, bs := range []int{0, 1, 3} {
			for _, workers := range []int{1, 4} {
				cfg := RunConfig{Workers: workers, BatchSize: bs}
				got, prof, err := cp.CountCtx(context.Background(), cfg)
				if err != nil || got != want {
					t.Fatalf("%s %+v: count %d, %v; reference %d", name, cfg, got, err, want)
				}
				if prof.FactorizedAvoided != want {
					t.Errorf("%s %+v: %d matches counted as products, want all %d", name, cfg, prof.FactorizedAvoided, want)
				}
				for _, limit := range []int64{1, 7, want / 3, want - 1, want, want + 5} {
					n, _, err := cp.CountUpToCtx(context.Background(), cfg, limit)
					if err != nil || n != min(limit, want) {
						t.Fatalf("%s %+v limit %d: %d, %v; want %d", name, cfg, limit, n, err, min(limit, want))
					}
				}
				if rows := sortedTuples(t, cp, cfg); !slices.Equal(rows, refTuples(g, p)) {
					t.Fatalf("%s %+v: %d rows differ from the reference's %d", name, cfg, len(rows), want)
				}
			}
			ordered := func(cfg RunConfig) []string {
				var out []string
				if _, err := cp.RunCtx(context.Background(), cfg, func(tu []graph.VertexID) bool {
					out = append(out, fmt.Sprint(tu))
					return true
				}); err != nil {
					t.Fatal(err)
				}
				return out
			}
			if got, plain := ordered(RunConfig{BatchSize: bs}), ordered(RunConfig{BatchSize: bs, NoFactorize: true}); !slices.Equal(got, plain) {
				t.Fatalf("%s bs=%d: the unfold's row order differs from the chain's", name, bs)
			}
		}
	}
}

// bowtieByBags counts the bowtie a->b, b->c, a->c, a->d, d->e, a->e
// (every label 0) on g bag by bag, sharing no code with the engine: it
// lists the triangles through every a by nested loops over g's
// adjacency, then adds T(a)².
func bowtieByBags(g graph.View) int64 {
	total := int64(0)
	for a := 0; a < g.NumVertices(); a++ {
		if g.VertexLabel(graph.VertexID(a)) != 0 {
			continue
		}
		out := g.Neighbors(graph.VertexID(a), graph.Forward, 0, 0, nil)
		tri := int64(0)
		for _, b := range out {
			for _, c := range g.Neighbors(b, graph.Forward, 0, 0, nil) {
				if slices.Contains(out, c) {
					tri++
				}
			}
		}
		total += tri * tri
	}
	return total
}

// TestComponentTailSplitHub counts the bowtie on a graph whose hub's
// scan adjacency is split across workers (hubSplitDegree): the hub's run
// of triangles arrives in parts, and the parts must be merged before the
// run's length is squared.
func TestComponentTailSplitHub(t *testing.T) {
	g := hubStarGraph(t)
	cp := Must(t, g, componentPlans(t)["bowtie"])
	want := bowtieByBags(g)
	if hub := int64(hubSplitDegree); want < hub*hub/4 {
		t.Fatalf("bowtie count %d: the hub holds too few triangles to matter", want)
	}
	for _, workers := range []int{1, 2, 4} {
		for range 3 {
			got, _, err := cp.CountCtx(context.Background(), RunConfig{Workers: workers})
			if err != nil || got != want {
				t.Fatalf("workers=%d: bowtie count %d, %v; bag by bag %d", workers, got, err, want)
			}
		}
		for _, limit := range []int64{1, want / 2, want - 1, want, want + 1} {
			got, _, err := cp.CountUpToCtx(context.Background(), RunConfig{Workers: workers}, limit)
			if err != nil || got != min(limit, want) {
				t.Fatalf("workers=%d limit %d: %d, %v; want %d", workers, limit, got, err, min(limit, want))
			}
		}
	}
}

// TestComponentTailEnumerationIsMetered checks that the matches a
// component caches for the unfold are charged to the run's budget. The
// graph is a hub whose out-neighbours pair up by an edge of each label:
// the labelled bowtie's wing on the hub has 4 096 matches, 32 KiB of IDs
// cached for the unfold, which a count never holds. A ceiling 16 KiB
// above what the count reserves must stop the enumeration.
func TestComponentTailEnumerationIsMetered(t *testing.T) {
	const pairs = 4096
	b := graph.NewBuilder(2*pairs + 1)
	for i := 1; i <= 2*pairs; i++ {
		b.AddEdge(0, graph.VertexID(i), 0)
	}
	for i := 1; i < 2*pairs; i += 2 {
		b.AddEdge(graph.VertexID(i), graph.VertexID(i+1), 0)
		b.AddEdge(graph.VertexID(i), graph.VertexID(i+1), 1)
	}
	g := b.MustBuild()
	cp := Must(t, g, componentPlans(t)["bowtieLabelled"])
	counted := resource.NewBudget(0, nil)
	n, _, err := cp.CountCtx(context.Background(), RunConfig{MemBudget: counted})
	if err != nil || n != pairs*pairs {
		t.Fatalf("count: %d, %v; want %d", n, err, pairs*pairs)
	}
	ceiling := counted.Used() + 16<<10
	_, err = cp.RunCtx(context.Background(), RunConfig{MemBudget: resource.NewBudget(ceiling, nil)},
		func([]graph.VertexID) bool { return true })
	if !errors.Is(err, resource.ErrBudgetExceeded) {
		t.Fatalf("enumeration under %d bytes: err = %v, want the budget exceeded", ceiling, err)
	}
}

// FuzzComponentTail builds, from the fuzzer's bytes, a small labelled
// graph and a pattern whose chain ends in two or three components — a
// leaf, a path or a triangle, each on the separator {a} or {a, b} of a
// scanned edge or triangle, some a copy of the prefix's own part above a
// — and holds the tail to query.RefCount and RefEnumerate, which share no
// code with it: the count, CountUpToCtx at a fuzzed cap and the rows, at
// Workers 1 and 3 with batch ends cut everywhere (batches of one to nine
// rows), and the row order of a sequential run to the non-factorized
// chain's.
func FuzzComponentTail(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 8, 0, 0, 0, 0, 12, 3, 5, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25})
	f.Add([]byte{3, 1, 2, 3, 9, 6, 5, 4, 2, 1, 0, 7, 33, 2, 200, 17, 91, 4, 66, 129, 3, 45, 250, 12, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 77, 78, 79})
	f.Add([]byte("\x05\x00\x01\x0a\x0e\x02\x0d\x04\x06abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGHIJ"))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		q := &query.Graph{}
		vertex := func(label int) int {
			q.Vertices = append(q.Vertices, query.Vertex{Name: fmt.Sprintf("v%d", len(q.Vertices)), Label: graph.Label(label & 1)})
			return len(q.Vertices) - 1
		}
		// edge joins u and v; bits 0 and 1 of b pick the direction and label.
		edge := func(u, v, b int) {
			if b&1 != 0 {
				u, v = v, u
			}
			q.Edges = append(q.Edges, query.Edge{From: u, To: v, Label: graph.Label(b >> 1 & 1)})
		}
		head := next()
		a, b := vertex(next()), vertex(next())
		ab := next()
		edge(a, b, ab)
		triangle := head&1 != 0
		var c, bc, ac int
		if triangle {
			c, bc, ac = vertex(next()), next(), next()
			edge(b, c, bc)
			edge(a, c, ac)
		}
		for range 2 + head>>1&1 {
			spec := next()
			sep := []int{a, b}[:1+spec>>2&1]
			if triangle && spec&8 != 0 {
				// A copy of the prefix's part above a: a PrefixTwin.
				x, y := vertex(int(q.Vertices[b].Label)), vertex(int(q.Vertices[c].Label))
				edge(a, x, ab)
				edge(x, y, bc)
				edge(a, y, ac)
				continue
			}
			prev := -1
			for i := range 1 + spec%3 {
				x := vertex(next())
				for _, s := range sep {
					if i == 0 || next()&4 != 0 {
						edge(s, x, next())
					}
				}
				if prev >= 0 {
					edge(prev, x, next())
				}
				prev = x
			}
		}
		bs, limit := 1+next()%9, next()
		n := 4 + next()%10
		gb := graph.NewBuilder(n)
		for v := range n {
			gb.SetVertexLabel(graph.VertexID(v), graph.Label(next()&1))
		}
		// At most three edges a vertex, so the pattern's matches stay few
		// enough to enumerate.
		for i := 0; i < 3*n && len(data) > 1; i++ {
			e := next()
			gb.AddEdge(graph.VertexID(e%n), graph.VertexID(next()%n), graph.Label(e>>7))
		}
		g := gb.MustBuild()
		p := buildWCO(t, q, chainOrder(q.NumVertices()))
		cp := Must(t, g, p)
		want := refCount(g, p)
		for _, workers := range []int{1, 3} {
			cfg := RunConfig{Workers: workers, BatchSize: bs}
			if got, _, err := cp.CountCtx(context.Background(), cfg); err != nil || got != want {
				t.Fatalf("%s %+v: count %d, %v; reference %d", q, cfg, got, err, want)
			}
			cap := int64(1 + limit%int(want+2))
			if got, _, err := cp.CountUpToCtx(context.Background(), cfg, cap); err != nil || got != min(cap, want) {
				t.Fatalf("%s %+v: count up to %d = %d, %v; want %d", q, cfg, cap, got, err, min(cap, want))
			}
			if want > 20_000 {
				continue
			}
			if rows := sortedTuples(t, cp, cfg); !slices.Equal(rows, refTuples(g, p)) {
				t.Fatalf("%s %+v: %d rows differ from the reference's %d", q, cfg, len(rows), want)
			}
		}
		if want > 20_000 {
			return
		}
		var got, plain []string
		for _, run := range []struct {
			cfg RunConfig
			out *[]string
		}{{RunConfig{BatchSize: bs}, &got}, {RunConfig{BatchSize: bs, NoFactorize: true}, &plain}} {
			if _, err := cp.RunCtx(context.Background(), run.cfg, func(tu []graph.VertexID) bool {
				*run.out = append(*run.out, fmt.Sprint(tu))
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
		if !slices.Equal(got, plain) {
			t.Fatalf("%s bs=%d: the unfold's row order differs from the chain's", q, bs)
		}
	})
}
