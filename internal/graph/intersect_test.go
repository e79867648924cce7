package graph

import (
	"math/rand"
	"testing"
)

// naiveIntersect is the quadratic-free reference: a map-membership fold
// sharing no code with any production kernel.
func naiveIntersect(lists ...[]VertexID) []VertexID {
	if len(lists) == 0 {
		return nil
	}
	out := []VertexID{}
	for _, x := range lists[0] {
		in := true
		for _, l := range lists[1:] {
			found := false
			for _, y := range l {
				if y == x {
					found = true
					break
				}
			}
			if !found {
				in = false
				break
			}
		}
		if in {
			out = append(out, x)
		}
	}
	return out
}

func equalIDs(a, b []VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkAllKernels runs every applicable kernel on (a, b) and compares
// each against the naive reference: the sorted merge/gallop entry point
// and the Intersector dispatcher in both operand orders.
func checkAllKernels(t *testing.T, a, b []VertexID) {
	t.Helper()
	want := naiveIntersect(a, b)
	if got := Intersect(a, b, nil); !equalIDs(got, want) {
		t.Fatalf("Intersect(%v, %v) = %v, want %v", a, b, got, want)
	}
	var it Intersector
	for _, lists := range [][][]VertexID{{a, b}, {b, a}} {
		got, _ := it.IntersectSeeded(nil, lists, nil, nil)
		if !equalIDs(got, want) {
			t.Fatalf("Intersector.IntersectSeeded(nil, %v) = %v, want %v", lists, got, want)
		}
	}
}

// TestIntersectExhaustiveSmallPairs checks every kernel against the
// naive reference over ALL pairs of sorted lists drawn from the universe
// {0..7}: 256 x 256 subset pairs.
func TestIntersectExhaustiveSmallPairs(t *testing.T) {
	subsets := make([][]VertexID, 256)
	for m := 0; m < 256; m++ {
		s := []VertexID{}
		for v := 0; v < 8; v++ {
			if m&(1<<v) != 0 {
				s = append(s, VertexID(v))
			}
		}
		subsets[m] = s
	}
	for _, a := range subsets {
		for _, b := range subsets {
			checkAllKernels(t, a, b)
		}
	}
}

// randomSortedList draws a strictly increasing list of the given length.
func randomSortedList(rng *rand.Rand, length, maxGap int) []VertexID {
	out := make([]VertexID, 0, length)
	v := VertexID(0)
	for i := 0; i < length; i++ {
		v += VertexID(1 + rng.Intn(maxGap))
		out = append(out, v)
	}
	return out
}

// TestIntersectGallopBoundary sweeps list-size ratios across the
// gallopThreshold switch point, checking the kernels against the
// reference exactly where dispatch flips.
func TestIntersectGallopBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ratios := []int{
		1, 2, 3, 4, 5,
		gallopThreshold - 1, gallopThreshold, gallopThreshold + 1, 3 * gallopThreshold,
	}
	for _, shortLen := range []int{1, 2, 3, 7} {
		for _, ratio := range ratios {
			for trial := 0; trial < 8; trial++ {
				a := randomSortedList(rng, shortLen, 6)
				b := randomSortedList(rng, shortLen*ratio, 3)
				checkAllKernels(t, a, b)
			}
		}
	}
}

// TestIntersectKDifferential fuzzes the k-way engine: random list
// counts and skewed random sizes must reproduce the naive reference.
func TestIntersectKDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var it Intersector
	var out, scratch []VertexID
	for trial := 0; trial < 300; trial++ {
		k := 2 + rng.Intn(4)
		lists := make([][]VertexID, k)
		for i := range lists {
			length := 1 + rng.Intn(40)
			if rng.Intn(3) == 0 { // skewed hub list
				length = 100 + rng.Intn(400)
			}
			lists[i] = randomSortedList(rng, length, 4)
		}
		want := naiveIntersect(lists...)
		out, scratch = it.IntersectSeeded(nil, lists, out, scratch)
		if !equalIDs(out, want) {
			t.Fatalf("trial %d: IntersectSeeded(nil, k=%d lists) = %v, want %v", trial, k, out, want)
		}
		// Seeding with the intersection of a prefix of the lists and
		// intersecting the rest in must land on the same set — with no
		// lists left, on a copy of the seed.
		cut := 1 + rng.Intn(k)
		seed := naiveIntersect(lists[:cut]...)
		seedCopy := append([]VertexID(nil), seed...)
		out, scratch = it.IntersectSeeded(seed, lists[cut:], out, scratch)
		if !equalIDs(out, want) {
			t.Fatalf("trial %d: IntersectSeeded(cut=%d of %d) = %v, want %v", trial, cut, k, out, want)
		}
		if !equalIDs(seed, seedCopy) || (len(out) > 0 && len(seed) > 0 && &out[0] == &seed[0]) {
			t.Fatalf("trial %d: IntersectSeeded wrote to or aliased its seed", trial)
		}
	}
}

// marksClean reports whether the pin bitmap has no bit set.
func marksClean(it *Intersector) bool {
	for _, w := range it.marks {
		if w != 0 {
			return false
		}
	}
	return true
}

// TestPinnedOperandLifecycle walks one Intersector through the states of
// its pinned operand — pinned, probed through for a run, unpinned, another
// list pinned in its place, a run abandoned and Reset — checking every
// result against the naive reference, the dispatch counters, and that the
// bitmap holds exactly the pinned list's bits (none once nothing is
// pinned).
func TestPinnedOperandLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := randomSortedList(rng, 60, 5)
	a2 := randomSortedList(rng, 45, 7)
	bs := make([][]VertexID, 6)
	for i := range bs {
		bs[i] = randomSortedList(rng, 20+rng.Intn(80), 4)
	}
	var it Intersector
	var out, scratch []VertexID
	probes := int64(0)
	probe := func(step string, pinned, partner []VertexID) {
		t.Helper()
		// The pinned entry is not read: nil stands in for it.
		var ok bool
		out, scratch, ok = it.ProbePinned([][]VertexID{nil, partner}, 0, out, scratch)
		if !ok {
			t.Fatalf("%s: refused below the cut-off", step)
		}
		probes++
		if want := naiveIntersect(pinned, partner); !equalIDs(out, want) {
			t.Fatalf("%s: got %v, want %v", step, out, want)
		}
		if it.Counters.PinnedProbe != probes || it.Counters.Merge+it.Counters.Gallop != 0 {
			t.Fatalf("%s: counters %+v, want %d pinned probes and nothing else", step, it.Counters, probes)
		}
		set := 0
		for _, v := range pinned {
			if it.marks[v>>6]&(1<<(v&63)) != 0 {
				set++
			}
		}
		if set != len(pinned) {
			t.Fatalf("%s: %d of the pinned list's %d bits are set", step, set, len(pinned))
		}
	}
	it.Pin(a)
	probe("first row", a, bs[0])
	probe("second row", a, bs[1])
	probe("a pinned list longer than its partner", a, bs[2][:3])
	it.Unpin()
	if !marksClean(&it) {
		t.Fatal("Unpin left bits behind")
	}
	it.Unpin() // nothing pinned: a no-op
	it.Pin(a2)
	probe("next run", a2, bs[3])
	// The run is abandoned and the caller's buffer refilled: Reset must not
	// go by it.
	buf := append([]VertexID(nil), bs[4]...)
	it.Unpin()
	it.Pin(buf)
	probe("pinned buffer", buf, bs[5])
	for i := range buf {
		buf[i] = VertexID(3 + i)
	}
	it.Reset()
	if !marksClean(&it) {
		t.Fatal("Reset cleared by the caller's refilled buffer, not the whole bitmap")
	}
	it.Reset() // nothing pinned: a no-op
	it.Pin(a)
	probe("after Reset", a, bs[0])
	it.Unpin()

	// Nothing to sweep, an empty pinned list and a hub partner are refused
	// without touching out; IDs beyond the bitmap are absent.
	it.Pin(a)
	if _, _, ok := it.ProbePinned([][]VertexID{a}, 0, out, scratch); ok {
		t.Fatal("ProbePinned with no other list reported a result")
	}
	hub := randomSortedList(rng, PinCutoff*len(a), 2)
	if _, _, ok := it.ProbePinned([][]VertexID{hub, a}, 1, out, scratch); ok {
		t.Fatalf("a partner of %d against a pinned list of %d was swept (cut-off %d)", len(hub), len(a), PinCutoff)
	}
	far := []VertexID{a[0], a[len(a)-1], VertexID(len(it.marks)*64 + 5)}
	if got, _, ok := it.ProbePinned([][]VertexID{far, nil}, 1, nil, nil); !ok || !equalIDs(got, far[:2]) {
		t.Fatalf("probe with an ID beyond the bitmap = %v, %v; want %v", got, ok, far[:2])
	}
	it.Unpin()
	it.Pin(nil)
	if _, _, ok := it.ProbePinned([][]VertexID{nil, bs[0]}, 0, out, scratch); ok {
		t.Fatal("an empty pinned list was swept")
	}
	it.Unpin()
	if !marksClean(&it) {
		t.Fatal("bitmap dirty at the end")
	}
}

// TestPinnedKWayFold checks the k-way shapes of the pinned path against
// the naive reference: any operand pinned, the shortest other one swept
// through the bitmap, the rest folded in — and the cut-off, where a
// partner far longer than the pinned list is handed back to the ordinary
// dispatch.
func TestPinnedKWayFold(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var it Intersector
	var out, scratch []VertexID
	for trial := 0; trial < 400; trial++ {
		k := 2 + rng.Intn(3)
		lists := make([][]VertexID, k)
		for i := range lists {
			length := 1 + rng.Intn(60)
			if rng.Intn(4) == 0 {
				length = 300 + rng.Intn(600)
			}
			lists[i] = randomSortedList(rng, length, 3)
		}
		want := naiveIntersect(lists...)
		for at := range lists {
			it.Pin(lists[at])
			before := it.Counters.PinnedProbe
			var ok bool
			out, scratch, ok = it.ProbePinned(lists, at, out, scratch)
			shortest := -1
			for i, l := range lists {
				if i != at && (shortest < 0 || len(l) < shortest) {
					shortest = len(l)
				}
			}
			if cut := shortest >= PinCutoff*len(lists[at]); cut == ok {
				t.Fatalf("trial %d pinned %d: partner of %d against a pinned list of %d: swept = %v (cut-off %d)", trial, at, shortest, len(lists[at]), ok, PinCutoff)
			}
			if ok && !equalIDs(out, want) {
				t.Fatalf("trial %d pinned %d: got %v, want %v", trial, at, out, want)
			}
			if got := it.Counters.PinnedProbe - before; ok != (got == 1) {
				t.Fatalf("trial %d pinned %d: %d pinned probes counted, swept = %v", trial, at, got, ok)
			}
			it.Unpin()
			if !marksClean(&it) {
				t.Fatalf("trial %d pinned %d: bitmap dirty after Unpin", trial, at)
			}
		}
	}
}

// TestIntersectorZeroAllocs asserts the E/I hot path's contract, kernel
// by kernel: after warm-up (AllocsPerRun runs the body once before
// measuring), a k-way intersection performs zero allocations no matter
// which kernel the sizes select. Each case checks the
// Intersector's own dispatch counters first, so a kernel silently
// falling back to another would fail loudly instead of vacuously
// passing the alloc check. It is the dynamic counterpart of the
// //gf:noalloc annotations gfvet enforces statically.
func TestIntersectorZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	short := randomSortedList(rng, 40, 60)
	mid := randomSortedList(rng, 700, 4)
	long := randomSortedList(rng, 900, 3)
	skewed := randomSortedList(rng, 64*len(short), 2)
	cases := []struct {
		name   string
		lists  [][]VertexID
		kernel func(c KernelCounters) int64
	}{
		{
			name:   "merge",
			lists:  [][]VertexID{mid, long},
			kernel: func(c KernelCounters) int64 { return c.Merge },
		},
		{
			name:   "gallop",
			lists:  [][]VertexID{short, skewed},
			kernel: func(c KernelCounters) int64 { return c.Gallop },
		},
		{
			name:   "kWayMixed",
			lists:  [][]VertexID{long, short, mid},
			kernel: func(c KernelCounters) int64 { return c.Merge + c.Gallop },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var it Intersector
			var out, scratch []VertexID
			out, scratch = it.IntersectSeeded(nil, tc.lists, out, scratch)
			if got := tc.kernel(it.Counters); got == 0 {
				t.Fatalf("intended kernel never dispatched (counters %+v)", it.Counters)
			}
			if allocs := testing.AllocsPerRun(100, func() {
				out, scratch = it.IntersectSeeded(nil, tc.lists, out, scratch)
			}); allocs != 0 {
				t.Errorf("%s-path IntersectSeeded allocates %.1f per run, want 0", tc.name, allocs)
			}
		})
	}
	// The pinned path: the bitmap grows on the first pin only; pinning,
	// sweeping a run's partners, folding a third list in and unpinning
	// allocate nothing after that.
	t.Run("pinned", func(t *testing.T) {
		var it Intersector
		var out, scratch []VertexID
		body := func() {
			it.Pin(long)
			out, scratch, _ = it.ProbePinned([][]VertexID{long, mid}, 0, out, scratch)
			out, scratch, _ = it.ProbePinned([][]VertexID{short, long}, 1, out, scratch)
			out, scratch, _ = it.ProbePinned([][]VertexID{mid, long, short}, 1, out, scratch)
			it.Unpin()
		}
		body()
		if it.Counters.PinnedProbe != 3 {
			t.Fatalf("pinned probe dispatched %d times in three calls, want 3 (counters %+v)", it.Counters.PinnedProbe, it.Counters)
		}
		if allocs := testing.AllocsPerRun(100, body); allocs != 0 {
			t.Errorf("the pinned path allocates %.1f per run, want 0", allocs)
		}
		if it.PinBytes() == 0 {
			t.Error("PinBytes reports nothing held after pinning")
		}
	})
	// The carried-set entry point: a seed galloped into a long list,
	// merged with one of its own size, and copied when nothing is left to
	// read.
	t.Run("seeded", func(t *testing.T) {
		var it Intersector
		var out, scratch []VertexID
		lists := [][]VertexID{skewed, short}
		body := func() {
			out, scratch = it.IntersectSeeded(short, lists, out, scratch)
			out, scratch = it.IntersectSeeded(short, nil, out, scratch)
		}
		body()
		if it.Counters.Gallop == 0 || it.Counters.Merge == 0 {
			t.Fatalf("seeded gallop or merge never dispatched (counters %+v)", it.Counters)
		}
		if allocs := testing.AllocsPerRun(100, body); allocs != 0 {
			t.Errorf("IntersectSeeded allocates %.1f per run, want 0", allocs)
		}
	})
}

// decodeFuzzList turns fuzz bytes into a strictly increasing ID list:
// each byte is a positive delta, capped at 256 elements so pin bitmaps
// stay small.
func decodeFuzzList(data []byte) []VertexID {
	if len(data) > 256 {
		data = data[:256]
	}
	out := make([]VertexID, 0, len(data))
	v := VertexID(0)
	for _, d := range data {
		v += VertexID(d) + 1
		out = append(out, v)
	}
	return out
}

// FuzzIntersect cross-checks every intersection kernel against the naive
// reference on fuzzer-chosen sorted lists, including the k-way engine
// over three lists and the pinned-operand kernel with either list pinned.
func FuzzIntersect(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 2, 3}, []byte{2, 2, 2})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, []byte{7})
	f.Add([]byte{5, 1, 9, 1, 1, 30}, []byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, ad, bd []byte) {
		a, b := decodeFuzzList(ad), decodeFuzzList(bd)
		want := naiveIntersect(a, b)
		if got := Intersect(a, b, nil); !equalIDs(got, want) {
			t.Fatalf("Intersect = %v, want %v", got, want)
		}
		var it Intersector
		for _, lists := range [][][]VertexID{{a, b}, {b, a}} {
			if got, _ := it.IntersectSeeded(nil, lists, nil, nil); !equalIDs(got, want) {
				t.Fatalf("IntersectSeeded(nil, %v) = %v, want %v", lists, got, want)
			}
		}
		// Three-way: a ∩ b ∩ a must equal a ∩ b.
		three := [][]VertexID{a, b, a}
		if got, _ := it.IntersectSeeded(nil, three, nil, nil); !equalIDs(got, want) {
			t.Fatalf("IntersectSeeded(nil, a,b,a) = %v, want %v", got, want)
		}
		// The pinned kernel, either operand pinned — refused exactly past the
		// cut-off — each followed by an unrelated call that must find the
		// bitmap clean.
		for _, pair := range [][2][]VertexID{{a, b}, {b, a}} {
			it.Pin(pair[0])
			got, _, ok := it.ProbePinned([][]VertexID{pair[0], pair[1]}, 0, nil, nil)
			if cut := len(pair[1]) >= PinCutoff*len(pair[0]); cut == ok {
				t.Fatalf("ProbePinned(|pinned| %d, |partner| %d) swept = %v", len(pair[0]), len(pair[1]), ok)
			}
			if ok && !equalIDs(got, want) {
				t.Fatalf("ProbePinned = %v, want %v", got, want)
			}
			it.Unpin()
			if !marksClean(&it) {
				t.Fatal("bitmap dirty after Unpin")
			}
			if got, _ := it.IntersectSeeded(pair[0], three, nil, nil); !equalIDs(got, want) {
				t.Fatalf("IntersectSeeded after a pinned run = %v, want %v", got, want)
			}
		}
	})
}
