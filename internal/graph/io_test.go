package graph

import (
	"bytes"
	"compress/gzip"
	"reflect"
	"strings"
	"testing"
)

func TestLoadEdgeList(t *testing.T) {
	in := `# comment
v 1 2
0 1
1 2 1
2 0
`
	g, err := LoadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatalf("LoadEdgeList: %v", err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("loaded %v", g)
	}
	if g.VertexLabel(1) != 2 {
		t.Errorf("vertex 1 label = %d, want 2", g.VertexLabel(1))
	}
	if !g.HasEdge(1, 2, 1) {
		t.Error("edge 1->2 label 1 missing")
	}
}

func TestLoadEdgeListErrors(t *testing.T) {
	cases := []string{
		"v 1\n",              // short vertex line
		"0\n",                // short edge line
		"0 1 2 3\n",          // long edge line
		"x 1\n",              // non-numeric
		"0 99999999999999\n", // overflow
	}
	for _, in := range cases {
		if _, err := LoadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("LoadEdgeList(%q) succeeded, want error", in)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	b := NewBuilder(5)
	b.SetVertexLabel(2, 3)
	b.AddEdge(0, 1, 0)
	b.AddEdge(1, 2, 2)
	b.AddEdge(3, 4, 0)
	want := b.MustBuild()

	got, err := LoadEdgeList(strings.NewReader("# 5 vertices, 3 edges\nv 2 3\n0 1\n1 2 2\n3 4\n"))
	if err != nil {
		t.Fatalf("LoadEdgeList: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("read %v, want %v", got, want)
	}
}

// TestEdgeListRoundTripKeepsVertices: an edge list reads back as the graph
// it describes — vertex count, labels and edges — when its last vertices
// are isolated (a "v" line sizes the graph), when it has no vertex at all
// and when it has no edge.
func TestEdgeListRoundTripKeepsVertices(t *testing.T) {
	tail := NewBuilder(10)
	tail.SetVertexLabel(1, 2)
	tail.AddEdge(0, 1, 0)
	tail.AddEdge(1, 2, 3)
	isolated := NewBuilder(3)
	isolated.SetVertexLabel(1, 4)
	for _, tc := range []struct {
		name, text string
		want       *Builder
	}{
		{"isolated tail", "v 1 2\nv 9 0\n0 1\n1 2 3\n", tail},
		{"empty", "# nothing\n", NewBuilder(0)},
		{"no edges", "v 2 0\n", NewBuilder(3)},
		{"labelled, no edges", "v 1 4\nv 2 0\n", isolated},
	} {
		got, err := LoadEdgeList(strings.NewReader(tc.text))
		if err != nil {
			t.Fatalf("%s: LoadEdgeList: %v", tc.name, err)
		}
		if want := tc.want.MustBuild(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: read %v from\n%s\nwant %v", tc.name, got, tc.text, want)
		}
	}
}

func TestLoadEdgeListGzip(t *testing.T) {
	in := "# leading comment\n0 1\n# interleaved comment\n1 2 1\n2 0\n"
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte(in)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := LoadEdgeList(&buf)
	if err != nil {
		t.Fatalf("LoadEdgeList(gzip): %v", err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("gzip load got %v, want 3 vertices / 3 edges", g)
	}
	if !g.HasEdge(1, 2, 1) {
		t.Error("edge 1->2 label 1 missing after gzip load")
	}
	// Plain input whose first bytes coincide with nothing special must be
	// unaffected by the sniffing path.
	g2, err := LoadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatalf("LoadEdgeList(plain): %v", err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Errorf("plain load %d edges, gzip load %d", g2.NumEdges(), g.NumEdges())
	}
}

func TestLoadEdgeListTruncatedGzip(t *testing.T) {
	// A bare gzip magic with no stream behind it must error, not hang or
	// parse as text.
	if _, err := LoadEdgeList(bytes.NewReader([]byte{0x1f, 0x8b})); err == nil {
		t.Error("LoadEdgeList on truncated gzip succeeded, want error")
	}
}

func TestLoadEmpty(t *testing.T) {
	g, err := LoadEdgeList(strings.NewReader("# nothing\n"))
	if err != nil {
		t.Fatalf("LoadEdgeList: %v", err)
	}
	if g.NumVertices() != 0 {
		t.Errorf("want empty graph, got %v", g)
	}
}
