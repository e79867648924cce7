package baseline

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"graphflow/internal/graph"
	"graphflow/internal/query"
)

var quickG = func() *graph.Graph {
	rng := rand.New(rand.NewSource(41))
	b := graph.NewBuilder(80)
	for v := 0; v < 80; v++ {
		b.SetVertexLabel(graph.VertexID(v), graph.Label(rng.Intn(2)))
	}
	for i := 0; i < 500; i++ {
		b.AddEdge(graph.VertexID(rng.Intn(80)), graph.VertexID(rng.Intn(80)), graph.Label(rng.Intn(2)))
	}
	return b.MustBuild()
}()

// smallQuery generates random labelled connected queries of 3-5 vertices.
type smallQuery struct{ Q *query.Graph }

// Generate implements quick.Generator.
func (smallQuery) Generate(rng *rand.Rand, _ int) reflect.Value {
	n := 3 + rng.Intn(3)
	q := &query.Graph{}
	for i := 0; i < n; i++ {
		q.Vertices = append(q.Vertices, query.Vertex{Label: graph.Label(rng.Intn(2))})
	}
	seen := map[[2]int]bool{}
	add := func(a, b int) {
		if a == b {
			return
		}
		k := [2]int{a, b}
		if a > b {
			k = [2]int{b, a}
		}
		if seen[k] {
			return
		}
		seen[k] = true
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		q.Edges = append(q.Edges, query.Edge{From: a, To: b, Label: graph.Label(rng.Intn(2))})
	}
	for i := 1; i < n; i++ {
		add(i, rng.Intn(i))
	}
	for k := 0; k < rng.Intn(n); k++ {
		add(rng.Intn(n), rng.Intn(n))
	}
	return reflect.ValueOf(smallQuery{q})
}

// TestQuickEnginesAgree: the three independent baseline engines (BJ
// edge-at-a-time, CFL-style, and the reference backtracker) agree on
// arbitrary labelled queries — cross-validation of three separate
// implementations of the same semantics.
func TestQuickEnginesAgree(t *testing.T) {
	f := func(sq smallQuery) bool {
		q := sq.Q
		want := query.RefCount(quickG, q)
		bj, _, err := BJCount(quickG, q, BJConfig{})
		if err != nil || bj != want {
			return false
		}
		bjEager, _, err := BJCount(quickG, q, BJConfig{EagerClose: true})
		if err != nil || bjEager != want {
			return false
		}
		return CFLCountUpTo(quickG, q, 0) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickPGEstimateWellFormed: the estimator never yields negatives or
// NaN on arbitrary queries.
func TestQuickPGEstimateWellFormed(t *testing.T) {
	f := func(sq smallQuery) bool {
		est := PGEstimate(quickG, sq.Q)
		return est >= 0 && est == est
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickCFLCapMonotone: capped counts never exceed the cap nor the
// true count.
func TestQuickCFLCapMonotone(t *testing.T) {
	f := func(sq smallQuery, capRaw uint16) bool {
		capN := int64(capRaw%200) + 1
		full := CFLCountUpTo(quickG, sq.Q, 0)
		capped := CFLCountUpTo(quickG, sq.Q, capN)
		if capped > capN && capped > full {
			return false
		}
		if full <= capN {
			return capped == full
		}
		return capped <= capN
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
