package query

import (
	"math/rand"
	"testing"
)

// TestMemoMatchesMap holds Memo to a Go map through growth: keys of
// masks alone (v = −1) and of masks with every vertex, overwritten and
// looked up, present and absent.
func TestMemoMatchesMap(t *testing.T) {
	type key struct {
		mask Mask
		v    int
	}
	rng := rand.New(rand.NewSource(1))
	var m Memo[int]
	ref := map[key]int{}
	for i := 0; i < 5000; i++ {
		k := key{Mask(rng.Intn(1 << 12)), rng.Intn(MaxVertices+1) - 1}
		if k.mask == 0 {
			k.mask = AllMask(MaxVertices)
		}
		if rng.Intn(3) > 0 {
			m.Put(k.mask, k.v, i)
			ref[k] = i
		}
		got, ok := m.Get(k.mask, k.v)
		want, wantOK := ref[k]
		if got != want || ok != wantOK {
			t.Fatalf("step %d: Get(%b, %d) = %d, %v; want %d, %v", i, k.mask, k.v, got, ok, want, wantOK)
		}
	}
	for k, want := range ref {
		if got, ok := m.Get(k.mask, k.v); !ok || got != want {
			t.Fatalf("Get(%b, %d) = %d, %v; want %d", k.mask, k.v, got, ok, want)
		}
	}
	if m.n != len(ref) {
		t.Fatalf("%d keys kept, want %d", m.n, len(ref))
	}
}
