package ghd

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"graphflow/internal/query"
)

// lpInstance generates random feasible covering LPs: minimize sum x over
// Ax >= b with 0/1 A and b = 1, plus a guaranteed-cover column of ones.
type lpInstance struct {
	A [][]float64
}

// Generate implements quick.Generator.
func (lpInstance) Generate(rng *rand.Rand, _ int) reflect.Value {
	m := 1 + rng.Intn(5)
	n := 1 + rng.Intn(6)
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, n+1)
		for j := 0; j < n; j++ {
			a[i][j] = float64(rng.Intn(2))
		}
		a[i][n] = 1 // all-ones column keeps the LP feasible
	}
	return reflect.ValueOf(lpInstance{a})
}

func TestQuickSimplexFeasibleBoundedCorrect(t *testing.T) {
	f := func(inst lpInstance) bool {
		m := len(inst.A)
		n := len(inst.A[0])
		c := make([]float64, n)
		for j := range c {
			c[j] = 1
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = 1
		}
		opt, x, err := solveLP(c, inst.A, b)
		if err != nil {
			return false
		}
		// Solution must be feasible...
		for i := 0; i < m; i++ {
			lhs := 0.0
			for j := 0; j < n; j++ {
				if x[j] < -1e-9 {
					return false
				}
				lhs += inst.A[i][j] * x[j]
			}
			if lhs < 1-1e-6 {
				return false
			}
		}
		// ...its value must equal the reported optimum...
		sum := 0.0
		for _, v := range x {
			sum += v
		}
		if math.Abs(sum-opt) > 1e-6 {
			return false
		}
		// ...and the optimum is at most 1 (the all-ones column alone covers
		// everything with weight 1) and at least 0.
		return opt >= -1e-9 && opt <= 1+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// randomConnQuery mirrors the optimizer package's generator (kept local:
// test helpers cannot be imported across packages).
type randomConnQuery struct{ Q *query.Graph }

// Generate implements quick.Generator.
func (randomConnQuery) Generate(rng *rand.Rand, _ int) reflect.Value {
	n := 2 + rng.Intn(4)
	q := &query.Graph{}
	for i := 0; i < n; i++ {
		q.Vertices = append(q.Vertices, query.Vertex{})
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
		q.Edges = append(q.Edges, query.Edge{From: a, To: b})
	}
	for i := 1; i < n; i++ {
		add(i, rng.Intn(i))
	}
	for k := 0; k < rng.Intn(2*n); k++ {
		add(rng.Intn(n), rng.Intn(n))
	}
	return reflect.ValueOf(randomConnQuery{q})
}

func TestQuickFECBounds(t *testing.T) {
	// For any connected query: m/2-ish lower bounds apply; we check the
	// universal ones: fec >= n/2 (every edge covers 2 vertices) and
	// fec <= n-1 (a spanning set of edges with weight 1 covers everything,
	// n-1 edges suffice... use m as the loose upper bound).
	f := func(rq randomConnQuery) bool {
		q := rq.Q
		n := float64(q.NumVertices())
		fec := FractionalEdgeCover(q, query.AllMask(q.NumVertices()))
		if math.IsInf(fec, 1) {
			return false // connected queries with >=1 edge are coverable
		}
		return fec >= n/2-1e-6 && fec <= float64(len(q.Edges))+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickDecompositionWidthsConsistent(t *testing.T) {
	// Every enumerated decomposition's width equals the max bag cover, and
	// the single-bag decomposition is always present.
	f := func(rq randomConnQuery) bool {
		q := rq.Q
		ds := Enumerate(q, 2)
		if len(ds) == 0 {
			return false
		}
		sawFull := false
		full := query.AllMask(q.NumVertices())
		for _, d := range ds {
			maxW := 0.0
			for _, bag := range d.Bags {
				w := FractionalEdgeCover(q, bag)
				if w > maxW {
					maxW = w
				}
			}
			if math.Abs(maxW-d.Width) > 1e-6 {
				return false
			}
			if len(d.Bags) == 1 && d.Bags[0] == full {
				sawFull = true
			}
		}
		return sawFull
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickMinWidthIsMinimum(t *testing.T) {
	f := func(rq randomConnQuery) bool {
		ds := Enumerate(rq.Q, 2)
		best := MinWidth(ds)
		if len(best) == 0 {
			return false
		}
		for _, d := range ds {
			if d.Width < best[0].Width-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
