package graph_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"graphflow/internal/graph"
	"graphflow/internal/live"
)

// edge is one directed labelled edge of a reference edge set.
type edge struct {
	src, dst graph.VertexID
	l        graph.Label
}

// readCase is one input of the read checks: every vertex's label, the
// edges of a base graph over all but the last appended vertices, and a
// batch (those vertices, then adds, then deletes) taking it to the final
// edge set.
type readCase struct {
	labels   []graph.Label
	appended int
	base     []edge
	add, del []edge
}

// decodeReadCase turns fuzz bytes into a small graph: up to 20 vertices,
// one to three vertex and edge labels, edges kept off the last quarter of
// the base vertices so that a tail of them stays empty.
func decodeReadCase(data []byte) readCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + next()%20
	shape := next()
	vl, el := 1+shape%3, 1+shape/4%3
	c := readCase{appended: shape / 64 % min(3, n)}
	c.labels = make([]graph.Label, n)
	for v := range c.labels {
		c.labels[v] = graph.Label(next() % vl)
	}
	nBase := n - c.appended
	reach := nBase*3/4 + 1
	vertex := func(x int) graph.VertexID {
		if x %= reach + c.appended; x >= reach {
			x += nBase - reach
		}
		return graph.VertexID(x)
	}
	for i := 0; len(data) >= 3 && i < 200; i++ {
		e := edge{vertex(next()), vertex(next()), 0}
		kind := next()
		e.l = graph.Label(kind % 64 % el)
		inBase := int(e.src) < nBase && int(e.dst) < nBase
		switch {
		case kind/64 < 2 && inBase:
			c.base = append(c.base, e)
		case kind/64 < 3:
			c.add = append(c.add, e)
		default:
			if inBase {
				c.base = append(c.base, e)
			}
			c.del = append(c.del, e)
		}
	}
	return c
}

func randomReadCase(rng *rand.Rand) readCase {
	data := make([]byte, 2+20+3*rng.Intn(60))
	rng.Read(data)
	return decodeReadCase(data)
}

// final returns the edge set the case ends at, in the order Edges visits
// it: by source, then edge label, destination label and destination.
func (c readCase) final() []edge {
	set := map[edge]bool{}
	for _, e := range slices.Concat(c.base, c.add) {
		set[e] = e.src != e.dst
	}
	for _, e := range c.del {
		delete(set, e)
	}
	var out []edge
	for e, ok := range set {
		if ok {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(a, b edge) int {
		return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.l, b.l),
			cmp.Compare(c.labels[a.dst], c.labels[b.dst]), cmp.Compare(a.dst, b.dst))
	})
	return out
}

func build(labels []graph.Label, edges []edge) *graph.Graph {
	b := graph.NewBuilder(len(labels))
	for v, l := range labels {
		b.SetVertexLabel(graph.VertexID(v), l)
	}
	for _, e := range edges {
		b.AddEdge(e.src, e.dst, e.l)
	}
	return b.MustBuild()
}

// reassemble feeds g's adjacency back through an Assembler the way the
// live store's fold does: stretches copied as blocks, the rest one vertex
// at a time out of a one-vertex copy, as an overlay entry is.
func reassemble(t *testing.T, g *graph.Graph, rng *rand.Rand) *graph.Graph {
	t.Helper()
	labels := make([]graph.Label, g.NumVertices())
	for v := range labels {
		labels[v] = g.VertexLabel(graph.VertexID(v))
	}
	asm := graph.NewAssembler(labels, g.NumEdges())
	for _, dir := range []graph.Direction{graph.Forward, graph.Backward} {
		for v, block := 0, rng.Intn(2) == 0; v < g.NumVertices(); block = !block {
			end := min(v+1+rng.Intn(4), g.NumVertices())
			if block {
				asm.AppendRange(dir, g.Adjacency(dir), graph.VertexID(v), graph.VertexID(end), graph.VertexID(v))
				v = end
				continue
			}
			for ; v < end; v++ {
				one := &graph.Adjacency{}
				one.CopyVertex(g.Adjacency(dir), graph.VertexID(v))
				asm.AppendRange(dir, one, 0, 1, graph.VertexID(v))
			}
		}
	}
	out, err := asm.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return out
}

// TestAssemblerMatchesBuilder: a graph assembled from sorted partitions
// is the graph Builder sorts its way to — every array, the directory form
// and label counts included.
func TestAssemblerMatchesBuilder(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		labels := make([]graph.Label, n)
		vl, el := 1+rng.Intn(3), 1+rng.Intn(3)
		for v := range labels {
			labels[v] = graph.Label(rng.Intn(vl))
		}
		// Leave a tail of isolated vertices so trailing entries are carried.
		var edges []edge
		for i := rng.Intn(n * 4); i > 0; i-- {
			edges = append(edges, edge{graph.VertexID(rng.Intn(n*3/4 + 1)), graph.VertexID(rng.Intn(n*3/4 + 1)), graph.Label(rng.Intn(el))})
		}
		want := build(labels, edges)
		if got := reassemble(t, want, rng); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (n=%d): assembled graph differs from the built one:\n got %+v\nwant %+v", seed, n, got, want)
		}
	}
}

// refRun is one partition of the reference: its labels and ID-sorted run.
type refRun struct {
	e, n graph.Label
	ids  []graph.VertexID
}

// refRuns returns v's partitions in dir matching (e, n), from the final
// edge set, in directory order.
func refRuns(c readCase, want []edge, v graph.VertexID, dir graph.Direction, e, n graph.Label) []refRun {
	var runs []refRun
	for _, ed := range want {
		owner, nbr := ed.src, ed.dst
		if dir == graph.Backward {
			owner, nbr = ed.dst, ed.src
		}
		nl := c.labels[nbr]
		if owner != v || (e != graph.WildcardLabel && ed.l != e) || (n != graph.WildcardLabel && nl != n) {
			continue
		}
		k := slices.IndexFunc(runs, func(r refRun) bool { return r.e == ed.l && r.n == nl })
		if k < 0 {
			runs = append(runs, refRun{e: ed.l, n: nl})
			k = len(runs) - 1
		}
		runs[k].ids = append(runs[k].ids, nbr)
	}
	slices.SortFunc(runs, func(a, b refRun) int { return cmp.Or(cmp.Compare(a.e, b.e), cmp.Compare(a.n, b.n)) })
	for _, r := range runs {
		slices.Sort(r.ids)
	}
	return runs
}

// checkReads holds every View read of g to the final edge set of c.
func checkReads(t *testing.T, where string, g graph.View, c readCase) {
	t.Helper()
	want := c.final()
	n := len(c.labels)
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: "+format, append([]any{where}, args...)...)
	}
	if g.NumVertices() != n || g.NumEdges() != len(want) {
		fail("V=%d E=%d, want V=%d E=%d", g.NumVertices(), g.NumEdges(), n, len(want))
	}
	eLabels := []graph.Label{0, 1, 2, 3, 40, graph.WildcardLabel}
	nLabels := []graph.Label{0, 1, 2, 3, graph.WildcardLabel}
	for v := graph.VertexID(0); int(v) < n; v++ {
		if got := g.VertexLabel(v); got != c.labels[v] {
			fail("VertexLabel(%d) = %d, want %d", v, got, c.labels[v])
		}
		for _, dir := range []graph.Direction{graph.Forward, graph.Backward} {
			all := refRuns(c, want, v, dir, graph.WildcardLabel, graph.WildcardLabel)
			total := 0
			for _, r := range all {
				total += len(r.ids)
			}
			deg := g.OutDegree(v)
			if dir == graph.Backward {
				deg = g.InDegree(v)
			}
			if deg != total {
				fail("degree of %d %v = %d, want %d", v, dir, deg, total)
			}
			for _, e := range eLabels {
				for _, nl := range nLabels {
					ref := refRuns(c, want, v, dir, e, nl)
					var ids []graph.VertexID
					for _, r := range ref {
						ids = append(ids, r.ids...)
					}
					slices.Sort(ids)
					if got := g.Neighbors(v, dir, e, nl, nil); !slices.Equal(got, ids) {
						fail("Neighbors(%d, %v, %d, %d) = %v, want %v", v, dir, e, nl, got, ids)
					}
					if got := g.Degree(v, dir, e, nl); got != len(ids) {
						fail("Degree(%d, %v, %d, %d) = %d, want %d", v, dir, e, nl, got, len(ids))
					}
					runs := g.NeighborRuns(v, dir, e, nl, nil)
					if len(runs) != len(ref) {
						fail("NeighborRuns(%d, %v, %d, %d) = %v, want %v", v, dir, e, nl, runs, ref)
					}
					for i, r := range ref {
						if !slices.Equal(runs[i], r.ids) {
							fail("NeighborRuns(%d, %v, %d, %d) = %v, want %v", v, dir, e, nl, runs, ref)
						}
					}
				}
			}
		}
		for dst := graph.VertexID(0); int(dst) < n; dst++ {
			for _, e := range eLabels {
				has := slices.ContainsFunc(want, func(ed edge) bool {
					return ed.src == v && ed.dst == dst && (e == graph.WildcardLabel || ed.l == e)
				})
				if got := g.HasEdge(v, dst, e); got != has {
					fail("HasEdge(%d, %d, %d) = %v, want %v", v, dst, e, got, has)
				}
			}
		}
		var of []edge
		g.EdgesOf(v, func(src, dst graph.VertexID, l graph.Label) bool {
			of = append(of, edge{src, dst, l})
			return true
		})
		if wantOf := slices.DeleteFunc(slices.Clone(want), func(ed edge) bool { return ed.src != v }); !slices.Equal(of, wantOf) {
			fail("EdgesOf(%d) = %v, want %v", v, of, wantOf)
		}
	}
	var all []edge
	g.Edges(func(src, dst graph.VertexID, l graph.Label) bool {
		all = append(all, edge{src, dst, l})
		return true
	})
	if !slices.Equal(all, want) {
		fail("Edges = %v, want %v", all, want)
	}
	if len(want) > 1 {
		visited := 0
		g.Edges(func(graph.VertexID, graph.VertexID, graph.Label) bool {
			visited++
			return false
		})
		if visited != 1 {
			fail("Edges went on for %d edges after fn returned false", visited)
		}
	}
}

// checkAllReads runs checkReads on the Builder graph of c's final edge
// set, on its Assembler reassembly and on a live snapshot that reaches it
// in two epochs — the appended vertices and the adds, then the deletes,
// which clone and edit adjacencies the first published — after each (the
// first snapshot again after the second) and after Compact; the reassembly and the compacted base must equal the
// Builder graph field for field.
func checkAllReads(t *testing.T, c readCase, rng *rand.Rand) {
	t.Helper()
	want := build(c.labels, c.final())
	checkReads(t, "Builder", want, c)
	if got := reassemble(t, want, rng); !reflect.DeepEqual(got, want) {
		t.Fatalf("reassembled graph differs from the built one:\n got %+v\nwant %+v", got, want)
	}
	checkReads(t, "Assembler", reassemble(t, want, rng), c)

	nBase := len(c.labels) - c.appended
	db, err := live.Open(build(c.labels[:nBase], c.base), live.Config{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	adds, dels := live.Batch{AddVertices: c.labels[nBase:]}, live.Batch{}
	for _, e := range c.add {
		adds.AddEdges = append(adds.AddEdges, live.EdgeOp{Src: e.src, Dst: e.dst, Label: e.l})
	}
	for _, e := range c.del {
		dels.DeleteEdges = append(dels.DeleteEdges, live.EdgeOp{Src: e.src, Dst: e.dst, Label: e.l})
	}
	if _, err := db.Apply(adds); err != nil {
		t.Fatal(err)
	}
	added, held := c, db.Snapshot()
	added.del = nil
	checkReads(t, "snapshot after the adds", held, added)
	if _, err := db.Apply(dels); err != nil {
		t.Fatal(err)
	}
	checkReads(t, "snapshot after the deletes", db.Snapshot(), c)
	checkReads(t, "snapshot after the adds, held", held, added)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	checkReads(t, "compacted snapshot", db.Snapshot(), c)
	if got := db.Snapshot().Base(); !reflect.DeepEqual(got, want) {
		t.Fatalf("compacted base differs from the built graph:\n got %+v\nwant %+v", got, want)
	}
}

// form names g's directory form in dir for the fixture censuses.
func form(g *graph.Graph, dir graph.Direction) string {
	switch graph.Stride(g, dir) {
	case 0:
		return "sparse"
	case 1:
		return "strided k=1"
	}
	return "strided k>1"
}

// requireEveryForm fails unless the census counts each directory form.
func requireEveryForm(t testing.TB, census map[string]int) {
	t.Helper()
	t.Logf("directory forms: %v", census)
	for _, f := range []string{"strided k=1", "strided k>1", "sparse"} {
		if census[f] == 0 {
			t.Fatalf("fixture covers %v; every directory form must be covered", census)
		}
	}
}

// TestGraphReads holds every graph.View read to a sorted edge set, on
// labelled and unlabelled graphs (every directory form), through Builder,
// Assembler and a live snapshot before and after compaction.
func TestGraphReads(t *testing.T) {
	census := map[string]int{}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomReadCase(rng)
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkAllReads(t, c, rng) })
		census[form(build(c.labels, c.final()), graph.Forward)]++
	}
	requireEveryForm(t, census)
}

func FuzzGraphReads(f *testing.F) {
	var seeds [][]byte
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		data := make([]byte, 2+20+3*rng.Intn(40))
		rng.Read(data)
		seeds = append(seeds, data)
	}
	seeds = append(seeds, []byte{19, 0x10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 2, 3, 0})
	census := map[string]int{}
	for _, data := range seeds {
		c := decodeReadCase(data)
		census[form(build(c.labels, c.final()), graph.Forward)]++
		f.Add(data)
	}
	requireEveryForm(f, census)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAllReads(t, decodeReadCase(data), rand.New(rand.NewSource(int64(len(data)))))
	})
}

// TestDirectoryFormFlips: an unlabelled store is strided with one slot per
// vertex; a second edge label keeps it strided with two, an edge labelled
// 40 makes the strided form 41 times the size and turns it sparse, and
// deleting both returns it to the graph it started as — each change at the
// compaction that folds it in, reading right throughout.
func TestDirectoryFormFlips(t *testing.T) {
	c := readCase{
		labels: make([]graph.Label, 7),
		base:   []edge{{0, 1, 0}, {0, 2, 0}, {1, 2, 0}, {2, 3, 0}, {3, 4, 0}, {4, 0, 0}},
	}
	g := build(c.labels, c.base)
	forms := func(g *graph.Graph) [2]string {
		return [2]string{form(g, graph.Forward), form(g, graph.Backward)}
	}
	if got := forms(g); got != [2]string{"strided k=1", "strided k=1"} {
		t.Fatalf("unlabelled graph: %v", got)
	}
	db, err := live.Open(g, live.Config{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	step := func(b live.Batch, want string) {
		t.Helper()
		if _, err := db.Apply(b); err != nil {
			t.Fatal(err)
		}
		checkReads(t, "before compaction", db.Snapshot(), c)
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		checkReads(t, "after compaction", db.Snapshot(), c)
		if got := forms(db.Snapshot().Base()); got != [2]string{want, want} {
			t.Fatalf("compacted base: %v, want %s", got, want)
		}
	}
	c.add = []edge{{0, 3, 1}}
	step(live.Batch{AddEdges: []live.EdgeOp{{Src: 0, Dst: 3, Label: 1}}}, "strided k>1")
	c.add = append(c.add, edge{1, 4, 40})
	step(live.Batch{AddEdges: []live.EdgeOp{{Src: 1, Dst: 4, Label: 40}}}, "sparse")
	c.del = c.add
	step(live.Batch{DeleteEdges: []live.EdgeOp{{Src: 0, Dst: 3, Label: 1}, {Src: 1, Dst: 4, Label: 40}}}, "strided k=1")
	if !reflect.DeepEqual(db.Snapshot().Base(), g) {
		t.Fatalf("folded back to one label, the base differs from the graph it started as")
	}
}
