package query

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"graphflow/internal/graph"
)

// randomQuery is a quick.Generator for small connected directed queries.
type randomQuery struct{ Q *Graph }

// Generate implements quick.Generator: a random connected query with 2-6
// vertices, built by vertex extension so connectivity holds by
// construction.
func (randomQuery) Generate(rng *rand.Rand, _ int) reflect.Value {
	n := 2 + rng.Intn(5)
	q := &Graph{}
	for i := 0; i < n; i++ {
		q.Vertices = append(q.Vertices, Vertex{Label: graph.Label(rng.Intn(2))})
	}
	seen := map[[2]int]bool{}
	addEdge := func(a, b int) {
		key := [2]int{min(a, b), max(a, b)}
		if seen[key] || a == b {
			return
		}
		seen[key] = true
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		q.Edges = append(q.Edges, Edge{From: a, To: b, Label: graph.Label(rng.Intn(2))})
	}
	// Spanning: vertex i attaches to a random earlier vertex.
	for i := 1; i < n; i++ {
		addEdge(i, rng.Intn(i))
	}
	// Extras.
	for k := 0; k < rng.Intn(2*n); k++ {
		addEdge(rng.Intn(n), rng.Intn(n))
	}
	return reflect.ValueOf(randomQuery{q})
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestQuickRandomQueriesValidate(t *testing.T) {
	f := func(rq randomQuery) bool {
		return rq.Q.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickCanonicalCodeIsomorphismInvariant(t *testing.T) {
	// Relabelling vertices with a random permutation never changes the
	// canonical code.
	f := func(rq randomQuery, seed int64) bool {
		q := rq.Q
		rng := rand.New(rand.NewSource(seed))
		n := len(q.Vertices)
		perm := rng.Perm(n)
		shuffled := &Graph{Vertices: make([]Vertex, n)}
		for i, v := range q.Vertices {
			shuffled.Vertices[perm[i]] = v
		}
		for _, e := range q.Edges {
			shuffled.Edges = append(shuffled.Edges, Edge{From: perm[e.From], To: perm[e.To], Label: e.Label})
		}
		return q.CanonicalCode() == shuffled.CanonicalCode()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestQuickCanonicalPermIsConsistent(t *testing.T) {
	// Applying the returned permutation to the query and re-encoding gives
	// the same code (the permutation actually realises the code).
	f := func(rq randomQuery) bool {
		q := rq.Q
		code, perm := q.CanonicalCodeWithPerm()
		relabel := &Graph{Vertices: make([]Vertex, len(q.Vertices))}
		for i, v := range q.Vertices {
			relabel.Vertices[perm[i]] = v
		}
		for _, e := range q.Edges {
			relabel.Edges = append(relabel.Edges, Edge{From: perm[e.From], To: perm[e.To], Label: e.Label})
		}
		code2, _ := relabel.CanonicalCodeWithPerm()
		return code == code2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickProjectionsConnectedSubsetsConsistent(t *testing.T) {
	// Every mask reported connected yields a projection that validates
	// (when it has edges) and whose vertex count matches the popcount.
	f := func(rq randomQuery) bool {
		q := rq.Q
		for _, mask := range q.ConnectedSubsets(2) {
			sub, orig := q.Project(mask)
			if len(orig) != sub.NumVertices() {
				return false
			}
			if len(sub.Edges) > 0 && !sub.IsConnected(AllMask(sub.NumVertices())) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickAutomorphismsFormGroup(t *testing.T) {
	// The automorphism set contains the identity and is closed under
	// composition (sufficient group checks for small sets).
	f := func(rq randomQuery) bool {
		q := rq.Q
		autos := q.Automorphisms()
		if len(autos) == 0 {
			return false
		}
		asKey := func(p []int) string {
			b := make([]byte, len(p))
			for i, x := range p {
				b[i] = byte(x)
			}
			return string(b)
		}
		set := map[string]bool{}
		idFound := false
		for _, p := range autos {
			set[asKey(p)] = true
			id := true
			for i, x := range p {
				if x != i {
					id = false
				}
			}
			if id {
				idFound = true
			}
		}
		if !idFound {
			return false
		}
		if len(autos) > 12 {
			return true // skip O(k^2) closure check for big groups
		}
		for _, p := range autos {
			for _, r := range autos {
				comp := make([]int, len(p))
				for i := range p {
					comp[i] = p[r[i]]
				}
				if !set[asKey(comp)] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestQuickRefCountPermutationInvariant(t *testing.T) {
	// Vertex renaming never changes the match count.
	g := func() *graph.Graph {
		b := graph.NewBuilder(30)
		rng := rand.New(rand.NewSource(8))
		for i := 0; i < 120; i++ {
			b.AddEdge(graph.VertexID(rng.Intn(30)), graph.VertexID(rng.Intn(30)), graph.Label(rng.Intn(2)))
		}
		return b.MustBuild()
	}()
	f := func(rq randomQuery, seed int64) bool {
		q := rq.Q
		// Vertex labels beyond the data graph's would be vacuous; clamp.
		for i := range q.Vertices {
			q.Vertices[i].Label = 0
		}
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(len(q.Vertices))
		shuffled := &Graph{Vertices: make([]Vertex, len(q.Vertices))}
		for i, v := range q.Vertices {
			shuffled.Vertices[perm[i]] = v
		}
		for _, e := range q.Edges {
			shuffled.Edges = append(shuffled.Edges, Edge{From: perm[e.From], To: perm[e.To], Label: e.Label})
		}
		return RefCount(g, q) == RefCount(g, shuffled)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
