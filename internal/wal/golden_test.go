package wal

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"graphflow/internal/graph"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/ckpt-*.snap from the current encoder")

// goldenEpoch names the pinned checkpoint, testdata/ckpt-<goldenEpoch>.snap.
const goldenEpoch = 7

// goldenLabels and goldenEdges are the graph the pinned checkpoint holds:
// three vertex labels, two edge labels, vertex 0 a hub (four out-edges
// to label-1 vertices under edge label 0: the one partition at the
// threshold the test loads it with), vertex 5 isolated and 11 a trailing
// isolated vertex.
var (
	goldenLabels = []graph.Label{0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2}
	goldenEdges  = []EdgeOp{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 4}, {Src: 0, Dst: 7}, {Src: 0, Dst: 10},
		{Src: 0, Dst: 3}, {Src: 0, Dst: 9, Label: 1},
		{Src: 1, Dst: 2}, {Src: 1, Dst: 0, Label: 1}, {Src: 2, Dst: 3},
		{Src: 3, Dst: 0}, {Src: 4, Dst: 8, Label: 1}, {Src: 6, Dst: 7},
		{Src: 7, Dst: 6, Label: 1}, {Src: 8, Dst: 0}, {Src: 9, Dst: 3, Label: 1},
		{Src: 10, Dst: 2},
	}
)

// TestCheckpointGolden pins the on-disk checkpoint format with a file
// written by an earlier build: it must load to the graph it was written
// from, and WriteCheckpoint on that graph must reproduce it byte for byte.
// Whatever the in-memory layout does, the format does not move with it; a
// change that means to move it bumps checkpointMagic and re-goldens with
// -update.
func TestCheckpointGolden(t *testing.T) {
	path := filepath.Join("testdata", checkpointName(goldenEpoch))
	if *updateGolden {
		b := graph.NewBuilder(len(goldenLabels))
		for v, l := range goldenLabels {
			b.SetVertexLabel(graph.VertexID(v), l)
		}
		for _, e := range goldenEdges {
			b.AddEdge(e.Src, e.Dst, e.Label)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := WriteCheckpoint(dir, goldenEpoch, b.MustBuild()); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, checkpointName(goldenEpoch)))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadCheckpoint(path, goldenEpoch)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != len(goldenLabels) {
		t.Fatalf("loaded %d vertices, want %d", g.NumVertices(), len(goldenLabels))
	}
	for v, l := range goldenLabels {
		if got := g.VertexLabel(graph.VertexID(v)); got != l {
			t.Fatalf("vertex %d loaded label %d, want %d", v, got, l)
		}
	}
	var edges []EdgeOp
	g.Edges(func(src, dst graph.VertexID, l graph.Label) bool {
		edges = append(edges, EdgeOp{Src: src, Dst: dst, Label: l})
		return true
	})
	cmp := func(a, b EdgeOp) int {
		if a.Src != b.Src {
			return int(a.Src) - int(b.Src)
		}
		if a.Dst != b.Dst {
			return int(a.Dst) - int(b.Dst)
		}
		return int(a.Label) - int(b.Label)
	}
	wantEdges := slices.Clone(goldenEdges)
	slices.SortFunc(edges, cmp)
	slices.SortFunc(wantEdges, cmp)
	if !slices.Equal(edges, wantEdges) {
		t.Fatalf("loaded edges %v, want %v", edges, wantEdges)
	}
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, goldenEpoch, g); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, checkpointName(goldenEpoch)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("rewritten checkpoint is %d bytes, golden %d; first difference at %d", len(got), len(want), firstDiff(got, want))
	}
}
