package datagen

import (
	"math/rand"
	"testing"

	"graphflow/internal/graph"
)

func TestSocialShape(t *testing.T) {
	g := Social(SocialConfig{N: 2000, MPerV: 6, Closure: 0.4, Reciprocal: 0.3, Seed: 7})
	if g.NumVertices() != 2000 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	if g.NumEdges() < 5000 {
		t.Fatalf("edges = %d, too few", g.NumEdges())
	}
	st := g.ComputeStats(500, rand.New(rand.NewSource(1)))
	if st.Clustering < 0.05 {
		t.Errorf("social clustering = %v, want clearly positive", st.Clustering)
	}
	// Preferential attachment must produce skew: max degree far above mean.
	if float64(st.In.Max) < 5*st.In.Mean {
		t.Errorf("in-degree skew too small: max=%d mean=%v", st.In.Max, st.In.Mean)
	}
}

func TestWebInDegreeSkew(t *testing.T) {
	g := Web(WebConfig{N: 3000, OutDeg: 7, Copy: 0.7, Seed: 8})
	st := g.ComputeStats(500, rand.New(rand.NewSource(1)))
	// Copying model: in-degree much more skewed than out-degree.
	if st.In.Max <= st.Out.Max {
		t.Errorf("web graph should have in-skew > out-skew: in.max=%d out.max=%d", st.In.Max, st.Out.Max)
	}
	if float64(st.In.Max) < 10*st.In.Mean {
		t.Errorf("in-degree skew too small: max=%d mean=%v", st.In.Max, st.In.Mean)
	}
}

func TestCoPurchaseUniformity(t *testing.T) {
	g := CoPurchase(CoPurchaseConfig{N: 3000, K: 5, Rewire: 0.15, Seed: 9})
	st := g.ComputeStats(500, rand.New(rand.NewSource(1)))
	// Lattice-based: bounded degree, no heavy tail.
	if float64(st.Out.Max) > 6*st.Out.Mean {
		t.Errorf("co-purchase out-degree unexpectedly skewed: max=%d mean=%v", st.Out.Max, st.Out.Mean)
	}
	if st.Clustering < 0.01 {
		t.Errorf("co-purchase clustering = %v, want positive", st.Clustering)
	}
}

func TestRelabel(t *testing.T) {
	g := CoPurchase(CoPurchaseConfig{N: 500, K: 3, Rewire: 0.1, Seed: 3})
	lg := Relabel(g, 3, 5, 11)
	if lg.NumVertices() != g.NumVertices() || lg.NumEdges() != g.NumEdges() {
		t.Fatalf("relabel changed topology: %v vs %v", lg, g)
	}
	if lg.NumVertexLabels() < 2 || lg.NumEdgeLabels() < 2 {
		t.Errorf("labels not assigned: v=%d e=%d", lg.NumVertexLabels(), lg.NumEdgeLabels())
	}
	// Unlabeled dimensions stay label 0.
	un := Relabel(g, 1, 1, 11)
	if un.NumVertexLabels() != 1 || un.NumEdgeLabels() != 1 {
		t.Errorf("relabel(1,1) should keep single labels")
	}
}

func TestDeterminism(t *testing.T) {
	a := Epinions(1)
	b := Epinions(1)
	if a.NumEdges() != b.NumEdges() || a.NumVertices() != b.NumVertices() {
		t.Fatalf("same seed produced different graphs")
	}
	// Spot-check adjacency equality on a few vertices.
	for v := graph.VertexID(0); v < 50; v++ {
		la := a.Neighbors(v, graph.Forward, 0, 0, nil)
		lb := b.Neighbors(v, graph.Forward, 0, 0, nil)
		if len(la) != len(lb) {
			t.Fatalf("vertex %d degree differs", v)
		}
		for i := range la {
			if la[i] != lb[i] {
				t.Fatalf("vertex %d adjacency differs", v)
			}
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		g := ByName(name, 1)
		if g == nil || g.NumEdges() == 0 {
			t.Errorf("dataset %s empty", name)
		}
	}
	if ByName("nope", 1) != nil {
		t.Errorf("unknown name should return nil")
	}
	if g := ByName("Ep", 1); g == nil {
		t.Errorf("abbreviation lookup failed")
	}
}

func TestHumanDataset(t *testing.T) {
	g := Human()
	if g.NumVertices() != 4674 {
		t.Errorf("human vertices = %d, want 4674", g.NumVertices())
	}
	if g.NumEdgeLabels() < 30 {
		t.Errorf("human edge labels = %d, want ~44", g.NumEdgeLabels())
	}
}

func TestRunShapes(t *testing.T) {
	cfg := RunShapesConfig{Core: 10, Periphery: 40, P: 0.4, P1: 0.2, HubEvery: 8, Seed: 3}
	g := RunShapes(cfg)
	hub := graph.VertexID(cfg.Core)
	n := g.NumVertices()
	if n != cfg.Core+1+cfg.Periphery {
		t.Fatalf("vertices = %d", n)
	}
	if d := g.Degree(hub, graph.Forward, 0, 0); d != n-1 {
		t.Errorf("hub points at %d of %d vertices", d, n-1)
	}
	for i := 0; i < cfg.Periphery; i++ {
		want := 1 + (i+1)%2
		if i%cfg.HubEvery == 0 {
			want += 2
		}
		if d := g.Degree(hub+1+graph.VertexID(i), graph.Forward, 0, 0); d != want {
			t.Errorf("periphery vertex %d: out-degree %d, want %d", i, d, want)
		}
	}
	labelled := 0
	for u := 0; u < cfg.Core; u++ {
		labelled += g.Degree(graph.VertexID(u), graph.Forward, 1, 0)
	}
	if labelled == 0 {
		t.Error("no core edge under the second edge label")
	}
}
