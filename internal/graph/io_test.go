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
	g := b.MustBuild()

	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	g2, err := LoadEdgeList(&buf)
	if err != nil {
		t.Fatalf("LoadEdgeList: %v", err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip mismatch: %v vs %v", g2, g)
	}
	if g2.VertexLabel(2) != 3 {
		t.Errorf("label lost in round trip")
	}
	if !g2.HasEdge(1, 2, 2) {
		t.Errorf("edge lost in round trip")
	}
}

// TestEdgeListRoundTripKeepsVertices: a graph written and read back is the
// graph it was — vertex count, labels and edges — when its last vertices
// are isolated, when it has no vertex at all and when it has no edge.
func TestEdgeListRoundTripKeepsVertices(t *testing.T) {
	tail := NewBuilder(10)
	tail.SetVertexLabel(1, 2)
	tail.AddEdge(0, 1, 0)
	tail.AddEdge(1, 2, 3)
	isolated := NewBuilder(3)
	isolated.SetVertexLabel(1, 4)
	for name, b := range map[string]*Builder{
		"isolated tail":      tail,
		"empty":              NewBuilder(0),
		"no edges":           NewBuilder(3),
		"labelled, no edges": isolated,
	} {
		g := b.MustBuild()
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatalf("%s: WriteEdgeList: %v", name, err)
		}
		text := buf.String()
		got, err := LoadEdgeList(&buf)
		if err != nil {
			t.Fatalf("%s: LoadEdgeList: %v", name, err)
		}
		if got.NumVertices() != g.NumVertices() || got.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: read back %v from\n%s\nwant %v", name, got, text, g)
		}
		if !reflect.DeepEqual(got, g) {
			t.Fatalf("%s: read back a different graph from\n%s", name, text)
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
