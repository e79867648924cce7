package catalogue

import (
	"bytes"
	"slices"
	"testing"

	"graphflow/internal/graph"
)

// fuzzBuildInput decodes bytes into a small labelled graph and a Build
// configuration: 1–4 vertex labels, 1–3 edge labels, H 2–4, Z up to 64,
// MaxInstances up to 16 and a work budget of 1 to 51 001 units, or none
// when H is 2 and the budget's byte is zero. (A budget bounds the jobs:
// unbudgeted, H 3 and 4 have thousands of jobs per pattern and up to
// thousands of patterns.)
func fuzzBuildInput(data []byte) (*graph.Graph, Config, int64) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	numVL, numEL, h := 1+at(0)%4, 1+at(0)/4%3, 2+at(0)/12%3
	cfg := Config{H: h, Z: 1 + at(1)%64, MaxInstances: 1 + at(2)%16, Seed: int64(at(4))}
	budget := int64(1 + 200*at(3))
	if at(3) == 0 && h == 2 {
		budget = maxWorkUnits
	}
	n := 2 + at(5)%30
	b := graph.NewBuilder(0)
	for v := range n {
		b.AddVertex(graph.Label(at(6+v) % numVL))
	}
	for i := 6 + n; i+2 < len(data) && i < 6+n+3*120; i += 3 {
		b.AddEdge(graph.VertexID(at(i)%n), graph.VertexID(at(i+1)%n), graph.Label(at(i+2)%numEL))
	}
	return b.MustBuild(), cfg, budget
}

// recomputeAll is FuzzBuild's reference measurer: it intersects every
// job's columns afresh, instance by instance, with the k-way kernel.
func recomputeAll(m *measurer, b *builder, j *job, cols []*column) {
	var it graph.Intersector
	lists := make([][]graph.VertexID, len(cols))
	for n := range j.instances {
		for i, c := range cols {
			lists[i] = c.lists[n]
		}
		if out, _ := it.IntersectSeeded(nil, lists, nil, nil); len(out) > 0 {
			m.add(b, j, n, out)
		}
	}
}

// FuzzBuild holds Build, whose jobs intersect their parent job's result
// with one more list, to a reference that intersects all of every job's
// lists: on any small labelled graph and configuration, with or without
// a work budget, Build on 1 and on 3 workers saves the reference's bytes
// and numbers its entries alike.
func FuzzBuild(f *testing.F) {
	// A budget that runs out in the middle of a 3-vertex pattern's jobs.
	f.Add([]byte{13, 63, 7, 20, 1, 9, 0, 1, 0, 1, 1, 0, 2, 1, 0,
		0, 1, 0, 1, 2, 1, 2, 3, 0, 3, 4, 1, 4, 5, 0, 5, 6, 1, 6, 7, 0, 7, 8, 1, 8, 0, 0,
		1, 3, 0, 2, 5, 1, 4, 7, 0, 6, 0, 1, 3, 1, 1, 5, 2, 0})
	// 3-vertex patterns of 2 184 jobs each, whose jobs straddle the ends
	// of 4 096-job batches, and a budget that runs out in the middle of
	// the sixth's, in the batch after the one its jobs start in.
	f.Add([]byte{18, 63, 0, 255, 2, 5, 0, 0, 0, 0, 0, 2, 1,
		0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 1, 3, 0, 5, 6, 1})
	// H 4 on one edge label.
	f.Add([]byte{25, 40, 5, 255, 3, 6, 0, 1, 0, 1, 0, 1,
		0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 4, 5, 0, 5, 0, 0, 0, 2, 0, 1, 3, 0, 2, 4, 0, 3, 5, 0})
	// H 2, unbudgeted.
	f.Add([]byte{39, 50, 9, 0, 4, 8, 0, 1, 2, 3, 0, 1, 2, 3,
		0, 1, 0, 1, 2, 1, 2, 3, 2, 3, 4, 0, 4, 5, 1, 5, 6, 2, 6, 7, 0, 7, 0, 1, 0, 4, 2, 2, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, cfg, budget := fuzzBuildInput(data)
		save := func(workers int, recompute bool) ([]byte, []Key) {
			b := newBuilder(g, cfg, workers)
			b.budget = budget
			if recompute {
				b.recompute = recomputeAll
			}
			c := b.run()
			var saved bytes.Buffer
			if err := c.Save(&saved); err != nil {
				t.Fatalf("Save: %v", err)
			}
			var order []Key
			for k := range c.All() {
				order = append(order, k)
			}
			return saved.Bytes(), order
		}
		want, wantOrder := save(1, true)
		for _, w := range []int{1, 3} {
			got, order := save(w, false)
			if !bytes.Equal(got, want) {
				t.Fatalf("%d workers saved %d bytes that differ from the reference's %d (H %d, Z %d, MaxInstances %d, budget %d)",
					w, len(got), len(want), cfg.H, cfg.Z, cfg.MaxInstances, budget)
			}
			if !slices.Equal(order, wantOrder) {
				t.Fatalf("%d workers numbered the %d entries otherwise than the reference", w, len(order))
			}
		}
	})
}
