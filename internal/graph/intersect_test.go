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
// each against the naive reference: the sorted merge/gallop entry point,
// the bitset probe in both orientations, the word-AND, and the
// Intersector dispatcher under every bitset-availability combination.
func checkAllKernels(t *testing.T, a, b []VertexID) {
	t.Helper()
	want := naiveIntersect(a, b)
	if got := Intersect(a, b, nil); !equalIDs(got, want) {
		t.Fatalf("Intersect(%v, %v) = %v, want %v", a, b, got, want)
	}
	ba, bb := NewBitsetFromSorted(a), NewBitsetFromSorted(b)
	if got := IntersectBitset(a, bb, nil); !equalIDs(got, want) {
		t.Fatalf("IntersectBitset(%v, bits(%v)) = %v, want %v", a, b, got, want)
	}
	if got := IntersectBitset(b, ba, nil); !equalIDs(got, want) {
		t.Fatalf("IntersectBitset(%v, bits(%v)) = %v, want %v", b, a, got, want)
	}
	if got := IntersectBitsets(ba, bb, nil); !equalIDs(got, want) {
		t.Fatalf("IntersectBitsets(%v, %v) = %v, want %v", a, b, got, want)
	}
	var it Intersector
	for _, bits := range [][]*Bitset{nil, {nil, nil}, {ba, nil}, {nil, bb}, {ba, bb}} {
		got, _ := it.IntersectK([][]VertexID{a, b}, bits, nil, nil)
		if !equalIDs(got, want) {
			t.Fatalf("Intersector.IntersectK(%v, %v, bits=%v) = %v, want %v", a, b, bits, got, want)
		}
	}
}

// TestIntersectExhaustiveSmallPairs checks every kernel against the
// naive reference over ALL pairs of sorted lists drawn from the universe
// {0..7}: 256 x 256 subset pairs, every representation combination.
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
// gallopThreshold switch point (and the BitsetProbeRatio one), checking
// the kernels against the reference exactly where dispatch flips.
func TestIntersectGallopBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ratios := []int{
		1, 2,
		BitsetProbeRatio - 1, BitsetProbeRatio, BitsetProbeRatio + 1,
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
// counts, skewed random sizes, and random per-list bitset availability
// must all reproduce the naive reference.
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
		bits := make([]*Bitset, k)
		for i := range bits {
			if rng.Intn(2) == 0 {
				bits[i] = NewBitsetFromSorted(lists[i])
			}
		}
		want := naiveIntersect(lists...)
		out, scratch = it.IntersectK(lists, bits, out, scratch)
		if !equalIDs(out, want) {
			t.Fatalf("trial %d: IntersectK(k=%d) = %v, want %v", trial, k, out, want)
		}
		// The compatibility wrapper (no bitsets) must agree too.
		got, _ := IntersectK(lists, nil, nil)
		if !equalIDs(got, want) {
			t.Fatalf("trial %d: wrapper IntersectK = %v, want %v", trial, got, want)
		}
		// Seeding with the intersection of a prefix of the lists and
		// intersecting the rest in must land on the same set — with no
		// lists left, on a copy of the seed.
		cut := 1 + rng.Intn(k)
		seed := naiveIntersect(lists[:cut]...)
		seedCopy := append([]VertexID(nil), seed...)
		out, scratch = it.IntersectRun(seed, lists[cut:], bits[cut:], 0, out, scratch)
		if !equalIDs(out, want) {
			t.Fatalf("trial %d: IntersectRun(seeded, cut=%d of %d) = %v, want %v", trial, cut, k, out, want)
		}
		if !equalIDs(seed, seedCopy) || (len(out) > 0 && len(seed) > 0 && &out[0] == &seed[0]) {
			t.Fatalf("trial %d: IntersectRun wrote to or aliased its seed", trial)
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
// IntersectRun's pinned operand — pinned on second sight, kept while same
// names it, dropped and replaced when another operand repeats instead,
// cleared by Unpin — checking every result against the naive reference,
// the dispatch counters, and that the bitmap holds exactly the pinned
// list's bits (none once nothing is pinned).
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
	run := func(step string, lists [][]VertexID, same uint32, wantPinned []VertexID, wantProbes int64) {
		t.Helper()
		out, scratch = it.IntersectRun(nil, lists, nil, same, out, scratch)
		if want := naiveIntersect(lists...); !equalIDs(out, want) {
			t.Fatalf("%s: got %v, want %v", step, out, want)
		}
		if !equalIDs(it.pinIDs, wantPinned) {
			t.Fatalf("%s: pinned %v, want %v", step, it.pinIDs, wantPinned)
		}
		if it.Counters.PinnedProbe != wantProbes {
			t.Fatalf("%s: %d pinned probes, want %d (counters %+v)", step, it.Counters.PinnedProbe, wantProbes, it.Counters)
		}
		if len(wantPinned) == 0 && !marksClean(&it) {
			t.Fatalf("%s: nothing pinned but the bitmap has bits set", step)
		}
		set := 0
		for _, v := range wantPinned {
			if it.marks[v>>6]&(1<<(v&63)) != 0 {
				set++
			}
		}
		if set != len(wantPinned) {
			t.Fatalf("%s: %d of the pinned list's %d bits are set", step, set, len(wantPinned))
		}
	}
	run("first sight merges", [][]VertexID{a, bs[0]}, 0, nil, 0)
	run("second sight pins", [][]VertexID{a, bs[1]}, 2, a, 1)
	run("third sight probes", [][]VertexID{a, bs[2]}, 2, a, 2)
	// The other operand repeats instead: a is unpinned, bs[2] pinned.
	run("re-pin on the other operand", [][]VertexID{a2, bs[2]}, 4, bs[2], 3)
	// Both repeat: the pin stays where it is.
	run("pin kept while named", [][]VertexID{a2, bs[2]}, 6, bs[2], 4)
	run("run over", [][]VertexID{a, bs[3]}, 0, nil, 4)
	run("pinned again", [][]VertexID{a, bs[4]}, 2, a, 5)
	it.Unpin()
	if !marksClean(&it) || len(it.pinIDs) != 0 {
		t.Fatal("Unpin left bits or IDs behind")
	}
	// After Unpin a stale same is harmless: the operand is pinned afresh.
	run("after Unpin", [][]VertexID{a, bs[5]}, 2, a, 6)

	// The pin owns its IDs: the caller refilling the pinned list's buffer
	// (a wildcard-label reader does) must not change what is probed or
	// what Unpin clears.
	buf := append([]VertexID(nil), a2...)
	it.Unpin()
	run("pin a buffer", [][]VertexID{buf, bs[0]}, 0, nil, 6)
	run("pin a buffer", [][]VertexID{buf, bs[1]}, 2, a2, 7)
	for i := range buf {
		buf[i] = VertexID(100000 + i)
	}
	out, scratch = it.IntersectRun(nil, [][]VertexID{buf, bs[2]}, nil, 2, out, scratch)
	if want := naiveIntersect(a2, bs[2]); !equalIDs(out, want) {
		t.Fatalf("probe after the caller's buffer was refilled: got %v, want %v", out, want)
	}
	it.Unpin()
	if !marksClean(&it) {
		t.Fatal("Unpin cleared by the caller's refilled buffer, not by the saved IDs")
	}
}

// TestPinnedKWayFold checks the k-way shapes of the pinned path against
// the naive reference: any operand pinned (the seed or a list), the
// shortest other one swept through the bitmap, the rest folded in with
// and without bitset indexes — and the cut-off, where a partner far
// longer than the pinned list sends the call down the ordinary dispatch.
func TestPinnedKWayFold(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var it Intersector
	var out, scratch []VertexID
	for trial := 0; trial < 400; trial++ {
		k := 2 + rng.Intn(3)
		lists := make([][]VertexID, k)
		bits := make([]*Bitset, k)
		for i := range lists {
			length := 1 + rng.Intn(60)
			if rng.Intn(4) == 0 {
				length = 300 + rng.Intn(600)
			}
			lists[i] = randomSortedList(rng, length, 3)
			if rng.Intn(2) == 0 {
				bits[i] = NewBitsetFromSorted(lists[i])
			}
		}
		var seed []VertexID
		if rng.Intn(2) == 0 {
			seed = randomSortedList(rng, 1+rng.Intn(40), 6)
		}
		all := lists
		if seed != nil {
			all = append([][]VertexID{seed}, lists...)
		}
		want := naiveIntersect(all...)
		// Pin each operand in turn: a first call with same = 0, then two
		// naming it.
		for pos := 0; pos <= k; pos++ {
			if pos == 0 && seed == nil {
				continue
			}
			it.Unpin()
			before := it.Counters
			for call, same := range []uint32{0, 1 << uint(pos), 1 << uint(pos)} {
				out, scratch = it.IntersectRun(seed, lists, bits, same, out, scratch)
				if !equalIDs(out, want) {
					t.Fatalf("trial %d pos %d call %d: got %v, want %v", trial, pos, call, out, want)
				}
			}
			// Bit pos is all[pos] with a seed, all[pos-1] without.
			at := pos
			if seed == nil {
				at--
			}
			pinned := all[at]
			if !equalIDs(it.pinIDs, pinned) {
				t.Fatalf("trial %d pos %d: pinned %v, want %v", trial, pos, it.pinIDs, pinned)
			}
			shortest := -1
			for i, l := range all {
				if i == at {
					continue
				}
				if shortest < 0 || len(l) < shortest {
					shortest = len(l)
				}
			}
			probes := it.Counters.PinnedProbe - before.PinnedProbe
			if cut := shortest >= pinCutoff*len(pinned); cut && probes != 0 {
				t.Fatalf("trial %d pos %d: partner of %d against a pinned list of %d was swept (cut-off %d)", trial, pos, shortest, len(pinned), pinCutoff)
			} else if !cut && probes != 2 {
				t.Fatalf("trial %d pos %d: %d pinned probes over two repeats, want 2", trial, pos, probes)
			}
		}
	}
	it.Unpin()
	if !marksClean(&it) {
		t.Fatal("bitmap dirty after the last Unpin")
	}
}

// TestBitsetBeyondUniverse checks that probing IDs past the bitset's
// universe — live-overlay vertices appended after a base was frozen —
// reports absent instead of reading out of bounds.
func TestBitsetBeyondUniverse(t *testing.T) {
	b := NewBitsetFromSorted([]VertexID{1, 3})
	if b.Contains(VertexID(1000)) {
		t.Fatal("Contains(1000) on a 4-vertex universe = true")
	}
	got := IntersectBitset([]VertexID{1, 64, 1000}, b, nil)
	if !equalIDs(got, []VertexID{1}) {
		t.Fatalf("IntersectBitset beyond universe = %v, want [1]", got)
	}
}

// TestIntersectorZeroAllocs asserts the E/I hot path's contract, kernel
// by kernel: after warm-up (AllocsPerRun runs the body once before
// measuring), a k-way intersection performs zero allocations no matter
// which kernel the sizes and indexes select. Each case checks the
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
		bits   []*Bitset
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
			name:   "bitsetProbe",
			lists:  [][]VertexID{short, long},
			bits:   []*Bitset{nil, NewBitsetFromSorted(long)},
			kernel: func(c KernelCounters) int64 { return c.BitsetProbe },
		},
		{
			name:   "bitsetAnd",
			lists:  [][]VertexID{mid, long},
			bits:   []*Bitset{NewBitsetFromSorted(mid), NewBitsetFromSorted(long)},
			kernel: func(c KernelCounters) int64 { return c.BitsetAnd },
		},
		{
			name:   "kWayMixed",
			lists:  [][]VertexID{long, short, mid},
			bits:   []*Bitset{NewBitsetFromSorted(long), nil, NewBitsetFromSorted(mid)},
			kernel: func(c KernelCounters) int64 { return c.Merge + c.Gallop + c.BitsetProbe + c.BitsetAnd },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var it Intersector
			var out, scratch []VertexID
			out, scratch = it.IntersectK(tc.lists, tc.bits, out, scratch)
			if got := tc.kernel(it.Counters); got == 0 {
				t.Fatalf("intended kernel never dispatched (counters %+v)", it.Counters)
			}
			if allocs := testing.AllocsPerRun(100, func() {
				out, scratch = it.IntersectK(tc.lists, tc.bits, out, scratch)
			}); allocs != 0 {
				t.Errorf("%s-path IntersectK allocates %.1f per run, want 0", tc.name, allocs)
			}
		})
	}
	// The pinned path: the operand that repeats is marked once (the bitmap
	// and the saved IDs grow on the first pin only), every later call
	// sweeps the partner through it, and a change of operand clears and
	// re-marks without allocating.
	t.Run("pinned", func(t *testing.T) {
		var it Intersector
		var out, scratch []VertexID
		body := func() {
			out, scratch = it.IntersectRun(nil, [][]VertexID{long, mid}, nil, 0, out, scratch)
			out, scratch = it.IntersectRun(nil, [][]VertexID{long, short}, nil, 2, out, scratch)
			out, scratch = it.IntersectRun(short, [][]VertexID{long, mid}, nil, 2, out, scratch)
			out, scratch = it.IntersectRun(short, [][]VertexID{mid, long}, nil, 1, out, scratch)
		}
		body()
		if it.Counters.PinnedProbe != 3 {
			t.Fatalf("pinned probe dispatched %d times in four calls, want 3 (counters %+v)", it.Counters.PinnedProbe, it.Counters)
		}
		if allocs := testing.AllocsPerRun(100, body); allocs != 0 {
			t.Errorf("pinned IntersectRun allocates %.1f per run, want 0", allocs)
		}
		if it.PinBytes() == 0 {
			t.Error("PinBytes reports nothing held after pinning")
		}
	})
	// The carried-set entry point: a seed probed into an indexed list,
	// merged with a plain one, and copied when nothing is left to read.
	t.Run("seeded", func(t *testing.T) {
		var it Intersector
		var out, scratch []VertexID
		lists := [][]VertexID{long, mid}
		bits := []*Bitset{NewBitsetFromSorted(long), nil}
		body := func() {
			out, scratch = it.IntersectRun(short, lists, bits, 0, out, scratch)
			out, scratch = it.IntersectRun(short, nil, nil, 0, out, scratch)
		}
		body()
		if it.Counters.BitsetProbe == 0 {
			t.Fatalf("seeded probe never dispatched (counters %+v)", it.Counters)
		}
		if allocs := testing.AllocsPerRun(100, body); allocs != 0 {
			t.Errorf("seeded IntersectRun allocates %.1f per run, want 0", allocs)
		}
	})
}

// decodeFuzzList turns fuzz bytes into a strictly increasing ID list:
// each byte is a positive delta, capped at 256 elements so bitset
// universes stay small.
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
// over three lists with full bitset availability and the pinned-operand
// kernel with either list pinned.
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
		ba, bb := NewBitsetFromSorted(a), NewBitsetFromSorted(b)
		if got := IntersectBitset(a, bb, nil); !equalIDs(got, want) {
			t.Fatalf("IntersectBitset = %v, want %v", got, want)
		}
		if got := IntersectBitsets(ba, bb, nil); !equalIDs(got, want) {
			t.Fatalf("IntersectBitsets = %v, want %v", got, want)
		}
		var it Intersector
		for _, bits := range [][]*Bitset{nil, {ba, bb}, {nil, bb}} {
			if got, _ := it.IntersectK([][]VertexID{a, b}, bits, nil, nil); !equalIDs(got, want) {
				t.Fatalf("IntersectK(bits=%v) = %v, want %v", bits, got, want)
			}
		}
		// Three-way: a ∩ b ∩ a must equal a ∩ b.
		three := [][]VertexID{a, b, a}
		if got, _ := it.IntersectK(three, []*Bitset{ba, bb, ba}, nil, nil); !equalIDs(got, want) {
			t.Fatalf("IntersectK(a,b,a) = %v, want %v", got, want)
		}
		// The pinned kernel, either operand pinned (as a list and as the
		// seed), each followed by an unrelated call that must find the
		// bitmap clean.
		for _, pair := range [][2][]VertexID{{a, b}, {b, a}} {
			lists := [][]VertexID{pair[0], pair[1]}
			for _, same := range []uint32{0, 2, 2} {
				if got, _ := it.IntersectRun(nil, lists, nil, same, nil, nil); !equalIDs(got, want) {
					t.Fatalf("IntersectRun(same=%d) = %v, want %v", same, got, want)
				}
			}
			for _, same := range []uint32{0, 1, 1} {
				if got, _ := it.IntersectRun(pair[0], lists[1:], nil, same, nil, nil); !equalIDs(got, want) {
					t.Fatalf("seeded IntersectRun(same=%d) = %v, want %v", same, got, want)
				}
			}
			if got, _ := it.IntersectRun(nil, three, nil, 0, nil, nil); !equalIDs(got, want) {
				t.Fatalf("IntersectRun after a pinned run = %v, want %v", got, want)
			}
			if !marksClean(&it) {
				t.Fatal("bitmap dirty after the pinned operand stopped repeating")
			}
		}
	})
}
