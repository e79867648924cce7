package query

import (
	"math/rand"
	"testing"

	"graphflow/internal/graph"
)

// FuzzParsePattern checks that the pattern parser never panics and that
// every accepted pattern round-trips: rendering the parsed query with
// String() and reparsing yields an isomorphic query (identical canonical
// key). Parse builds vertices in edge-discovery order and String emits
// edges in input order, so the round trip should be structurally exact.
func FuzzParsePattern(f *testing.F) {
	for _, s := range []string{
		"a->b",
		"a->b, b->c, a->c",
		"a:1 -[2]-> b:0",
		"a <- b",
		"x -> y; y -> z\nz -> x",
		"a-[1]->b, b-[1]->c, c-[1]->a",
		"v1:2 -> v2, v2 -[65535]-> v1",
		"  spaced name -> other  ",
		"a->b, c->b, c->d, a->d",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, pattern string) {
		q, err := Parse(pattern)
		if err != nil {
			return // rejection is fine; panics are not
		}
		rendered := q.String()
		rt, err := Parse(rendered)
		if err != nil {
			t.Fatalf("round trip of %q failed: String() = %q does not reparse: %v", pattern, rendered, err)
		}
		if got, want := rt.Key(), q.Key(); got != want {
			t.Fatalf("round trip of %q changed the query:\n  rendered %q\n  key %s\n  reparsed key %s", pattern, rendered, Code(want), Code(got))
		}
	})
}

// kernelEnumeratesAll reports whether the kernel tries every candidate
// ordering of q, recomputing its count independently: the product of the
// class-size factorials under the invariant (label, out-degree,
// in-degree) must stay within maxCanonPerms. Beyond it distinct
// spellings may legitimately receive distinct keys (a cache miss, never
// a wrong plan), so the fuzz equality assertion applies only within it.
func kernelEnumeratesAll(q *Graph) bool {
	type invariant struct {
		label   graph.Label
		out, in int
	}
	inv := make([]invariant, len(q.Vertices))
	for v, x := range q.Vertices {
		inv[v].label = x.Label
	}
	for _, e := range q.Edges {
		inv[e.From].out++
		inv[e.To].in++
	}
	classSize := map[invariant]int{}
	perms := 1
	for _, x := range inv {
		classSize[x]++
		if perms *= classSize[x]; perms > maxCanonPerms {
			return false
		}
	}
	return true
}

// respell returns an isomorphic copy of q: vertices renumbered by a
// random permutation and renamed, edges remapped and shuffled.
func respell(q *Graph, rng *rand.Rand) *Graph {
	n := len(q.Vertices)
	perm := rng.Perm(n) // perm[origIdx] = new index
	out := &Graph{Vertices: make([]Vertex, n), Edges: make([]Edge, 0, len(q.Edges))}
	names := []string{"x", "yy", "z3", "w", "q_", "r", "s9", "t", "uu", "v"}
	for orig, ni := range perm {
		name := names[ni%len(names)]
		if ni >= len(names) {
			name += string(rune('a' + ni/len(names)))
		}
		out.Vertices[ni] = Vertex{Name: name, Label: q.Vertices[orig].Label}
	}
	for _, e := range q.Edges {
		out.Edges = append(out.Edges, Edge{From: perm[e.From], To: perm[e.To], Label: e.Label})
	}
	rng.Shuffle(len(out.Edges), func(i, j int) {
		out.Edges[i], out.Edges[j] = out.Edges[j], out.Edges[i]
	})
	return out
}

// FuzzCanonical checks the plan-cache key's respell-invariance: random
// isomorphic respellings of a pattern (vertex renaming, renumbering, edge
// reordering) map to the same Key whenever the kernel enumerates every
// candidate ordering, and Key never panics or hangs regardless.
func FuzzCanonical(f *testing.F) {
	seeds := []string{
		"a->b, b->c, a->c",
		"a->b, b->c, c->d, d->a",
		"a->b, a->c, a->d, b->c, b->d, c->d",
		"a:1->b:2, b:2->c:1",
		"hub->s1, hub->s2, hub->s3",
		"a-[1]->b, b-[2]->c, c-[1]->a",
	}
	for _, s := range seeds {
		f.Add(s, uint64(1))
		f.Add(s, uint64(12345))
	}
	f.Fuzz(func(t *testing.T, pattern string, seed uint64) {
		q, err := Parse(pattern)
		if err != nil {
			return
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		re := respell(q, rng)
		key := q.Key()
		reKey := re.Key()
		if key == "" || reKey == "" {
			t.Fatalf("empty canonical key for %q", pattern)
		}
		if !kernelEnumeratesAll(q) {
			// Symmetry beyond the enumeration bound: keys may differ by
			// design. Still require determinism of each spelling's own key.
			if again := re.Key(); again != reKey {
				t.Fatalf("unstable key for one spelling of %q: %s vs %s", pattern, Code(reKey), Code(again))
			}
			return
		}
		if key != reKey {
			t.Fatalf("isomorphic respelling of %q changed the canonical key:\n  original  %q -> %s\n  respelled %q -> %s",
				pattern, q.String(), Code(key), re.String(), Code(reKey))
		}
	})
}

// TestRespellIsIsomorphic guards the fuzz helper itself: a respelled
// query must be isomorphic to its source (checked with the exact
// factorial canonicalization on small queries).
func TestRespellIsIsomorphic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, pat := range []string{"a->b, b->c, a->c", "a:1->b, b->c:2, c:2->a:1", "a-[3]->b, b->c, c->d, d->a"} {
		q := MustParse(pat)
		for i := 0; i < 10; i++ {
			re := respell(q, rng)
			if err := re.Validate(); err != nil {
				t.Fatalf("respell of %q invalid: %v", pat, err)
			}
			if !isIsomorphic(q, re) {
				t.Fatalf("respell of %q is not isomorphic: %q", pat, re.String())
			}
		}
	}
}

// TestFuzzSeedsPass runs every checked-in seed through both fuzz bodies
// so a seed regression fails fast in a plain `go test` run too.
func TestFuzzSeedsPass(t *testing.T) {
	seeds := []string{
		"a->b", "a->b, b->c, a->c", "a:1 -[2]-> b:0", "a <- b",
		"a->b, b->c, c->d, d->a", "a->b, a->c, a->d, b->c, b->d, c->d",
	}
	rng := rand.New(rand.NewSource(7))
	for _, s := range seeds {
		q, err := Parse(s)
		if err != nil {
			t.Fatalf("seed %q does not parse: %v", s, err)
		}
		if rt, err := Parse(q.String()); err != nil || rt.Key() != q.Key() {
			t.Fatalf("seed %q does not round-trip (err %v)", s, err)
		}
		if kernelEnumeratesAll(q) {
			if re := respell(q, rng); re.Key() != q.Key() {
				t.Fatalf("seed %q respelling changed key", s)
			}
		}
	}
}
