package graph

// gallopThreshold is the size ratio beyond which the sorted-array kernel
// switches from in-tandem merging to galloping (exponential) search into
// the longer list.
const gallopThreshold = 32

// PinCutoff is the size ratio beyond which an intersection leaves the
// pinned operand's bitmap alone: sweeping a partner list PinCutoff times
// the pinned list's length through the bitmap reads every element of the
// partner, where galloping the pinned list into it reads a handful per
// pinned element. Below it the sweep wins whichever side is longer — it
// never reads the pinned list.
// Set from BenchmarkIntersectAdjacency (internal/exec), whose comment
// records the measurements.
const PinCutoff = gallopThreshold

// KernelCounters tallies intersection-kernel dispatches by kind. The
// engine picks a kernel per pairwise intersection, so one k-way E/I call
// can increment several counters.
type KernelCounters struct {
	// Merge counts in-tandem sorted-merge intersections.
	Merge int64
	// Gallop counts galloping (exponential search) intersections.
	Gallop int64
	// BitsetProbe is always zero.
	//
	// Deprecated: the hub bitset index and its probe kernel are gone; the
	// field stays only until the benchmark stops reading it.
	BitsetProbe int64
	// BitsetAnd is always zero.
	//
	// Deprecated: the hub bitset index and its word-AND kernel are gone;
	// the field stays only until the benchmark stops reading it.
	BitsetAnd int64
	// PinnedProbe counts sweeps of a list through the bitmap of the
	// operand an Intersector has pinned for the current run.
	PinnedProbe int64
}

// Add accumulates other into c.
func (c *KernelCounters) Add(other KernelCounters) {
	c.Merge += other.Merge
	c.Gallop += other.Gallop
	c.PinnedProbe += other.PinnedProbe
}

// Intersect writes the sorted intersection of the ID-sorted lists a and b
// into out (which is truncated first and may be nil) and returns it.
//
// The kernel is the paper's iterative 2-way in-tandem intersection; when one
// list is much longer than the other it gallops into the longer list, which
// matters on skewed adjacency lists.
//
//gf:noalloc
func Intersect(a, b, out []VertexID) []VertexID {
	r, _ := intersectSorted(a, b, out)
	return r
}

// intersectSorted is Intersect reporting whether the galloping variant
// ran (false: in-tandem merge), so callers can attribute kernel counters
// without a second length comparison.
func intersectSorted(a, b, out []VertexID) ([]VertexID, bool) {
	out = out[:0]
	if len(a) == 0 || len(b) == 0 {
		return out, false
	}
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) >= gallopThreshold*len(a) {
		return gallopIntersect(a, b, out), true
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		switch {
		case x == y:
			out = append(out, x)
			i++
			j++
		case x < y:
			i++
		default:
			j++
		}
	}
	return out, false
}

// gallopIntersect intersects a short list into a much longer one.
func gallopIntersect(short, long, out []VertexID) []VertexID {
	lo := 0
	for _, x := range short {
		// Exponential probe from lo.
		step := 1
		hi := lo
		for hi < len(long) && long[hi] < x {
			lo = hi + 1
			hi += step
			step <<= 1
		}
		if hi > len(long) {
			hi = len(long)
		}
		// Binary search long[lo:hi] for the first element >= x. Open-coded
		// rather than sort.Search: the closure sort.Search takes captures
		// long and x and escapes, costing one heap allocation per probed
		// element on this zero-alloc path.
		i, j := lo, hi
		for i < j {
			mid := int(uint(i+j) >> 1)
			if long[mid] < x {
				i = mid + 1
			} else {
				j = mid
			}
		}
		k := i
		if k < len(long) && long[k] == x {
			out = append(out, x)
			lo = k + 1
		} else {
			lo = k
		}
		if lo >= len(long) {
			break
		}
	}
	return out
}

// Intersector is the k-way intersection engine plus the per-caller
// scratch it needs to run allocation-free: the shortest-first ordering of
// list headers lives here, owned by the E/I stage state (one Intersector per worker stage,
// reused across every tuple), and so does the bitmap of the operand the
// stage has pinned (Pin). Kernel dispatches are tallied in
// Counters. An Intersector is not safe for concurrent use; the zero value
// is ready.
type Intersector struct {
	// Counters tallies kernel dispatches; callers flush and reset it when
	// aggregating profiles.
	Counters KernelCounters
	// Words is the size, in 64-ID words, the pin bitmap is given when it is
	// first needed: ⌈V/64⌉ of the graph the lists come from, so one
	// allocation serves every list. Left zero, the bitmap grows to the
	// largest ID pinned.
	Words int
	refs  [][]VertexID

	// The pinned operand: marks has exactly the bits of pinned set. pinned
	// is the caller's own slice (Pin's contract keeps it unchanged until
	// Unpin), nil when nothing is pinned and marks is all zero.
	marks  []uint64
	pinned []VertexID
}

// intersectInto intersects the sorted list r with l, writing into out:
// a gallop when one side is much longer than the other, a merge
// otherwise.
func (it *Intersector) intersectInto(r, l, out []VertexID) []VertexID {
	res, galloped := intersectSorted(r, l, out)
	if galloped {
		it.Counters.Gallop++
	} else {
		it.Counters.Merge++
	}
	return res
}

// order loads the list headers into the reusable ref scratch, shortest
// first to bound intermediate sizes. Insertion sort: descriptor counts
// are tiny and sort.Slice would allocate its closure on every call.
func (it *Intersector) order(lists [][]VertexID) [][]VertexID {
	it.refs = append(it.refs[:0], lists...)
	refs := it.refs
	for i := 1; i < len(refs); i++ {
		for j := i; j > 0 && len(refs[j]) < len(refs[j-1]); j-- {
			refs[j], refs[j-1] = refs[j-1], refs[j]
		}
	}
	return refs
}

// IntersectSeeded intersects any number of ID-sorted lists with an
// optional seed: an already-computed sorted set, such as the extension
// set an upstream E/I stage carried down. With seed nil it intersects
// lists shortest-first, picking merge or gallop per pairwise step from
// the lists' sizes (one list is copied; none gives an empty result);
// otherwise it is seed ∩ lists, seed first and lists shortest-first
// through the same per-step dispatch; with no lists the result is a copy
// of seed. The result is written into out, ping-ponging with scratch
// between steps (pass nil on first use; the caller keeps both returned
// buffers); neither may alias an operand, which are only read. After
// warm-up the call performs no allocations.
//
//gf:noalloc
func (it *Intersector) IntersectSeeded(seed []VertexID, lists [][]VertexID, out, scratch []VertexID) (result, newScratch []VertexID) {
	if seed == nil {
		switch len(lists) {
		case 0:
			return out[:0], scratch
		case 1:
			out = append(out[:0], lists[0]...)
			return out, scratch
		}
		refs := it.order(lists)
		if len(refs[0]) == 0 {
			return out[:0], scratch
		}
		out = it.intersectInto(refs[0], refs[1], out)
		for i := 2; i < len(refs) && len(out) > 0; i++ {
			scratch = it.intersectInto(out, refs[i], scratch)
			out, scratch = scratch, out
		}
		return out, scratch
	}
	if len(lists) == 0 {
		out = append(out[:0], seed...)
		return out, scratch
	}
	r := seed
	for _, ref := range it.order(lists) {
		scratch = it.intersectInto(r, ref, scratch)
		out, scratch = scratch, out
		r = out
		if len(r) == 0 {
			break
		}
	}
	return out, scratch
}

// Pin marks list — one operand that a run of intersections shares — in a
// bitmap the Intersector keeps, so that ProbePinned can compute each
// intersection of the run without reading list again. The caller says
// what a run is: it pins when it knows the operand repeats and unpins
// when it stops. list is kept, not copied, and the bitmap is cleared by
// it: it must stay as it is until Unpin (immutable adjacency, or a buffer
// nothing refills while the run lasts). It must hold no ID twice — a
// bitmap has no multiplicities — and nothing may be pinned already.
func (it *Intersector) Pin(list []VertexID) {
	it.pinned = list
	if len(list) == 0 {
		return
	}
	if need := int(list[len(list)-1]>>6) + 1; need > len(it.marks) {
		if need < it.Words {
			need = it.Words
		}
		it.marks = make([]uint64, need) //gf:allowalloc first-use bitmap growth: once per stage when Words spans the graph
	}
	marks := it.marks
	for _, v := range list {
		marks[v>>6] |= 1 << (v & 63)
	}
}

// Unpin clears the bitmap by the pinned list and forgets it. A no-op when
// nothing is pinned.
func (it *Intersector) Unpin() {
	marks := it.marks
	for _, v := range it.pinned {
		marks[v>>6] = 0
	}
	it.pinned = nil
}

// Reset is Unpin for a caller that can no longer vouch for the pinned
// list — a run abandoned halfway by an early stop, a cancelled query or a
// panic, whose buffers may have been refilled since: the whole bitmap is
// cleared. The lists earlier intersections ordered are forgotten too, so
// an idle Intersector keeps no list's storage reachable.
func (it *Intersector) Reset() {
	if it.pinned != nil {
		clear(it.marks)
		it.pinned = nil
	}
	clear(it.refs[:cap(it.refs)])
}

// PinBytes is the memory the pin bitmap holds. Zero until something has
// been pinned.
func (it *Intersector) PinBytes() int64 { return int64(cap(it.marks)) * 8 }

// ProbePinned computes the intersection of lists, of which lists[pinned]
// is the pinned operand (whatever that entry holds, it is not read: the
// bitmap stands for it): the shortest other list is swept through the
// bitmap — one word load per element, whichever side is longer — and the
// remaining ones are folded in by gallop or merge. The result is written
// into out, ping-ponging with scratch as in IntersectSeeded. ok is false, and
// nothing is computed, when the shortest other list is PinCutoff times
// the pinned one's length — a hub, where the ordinary dispatch gallops
// the pinned list into it, reading a handful of elements per pinned one
// where the sweep would read them all — or when there is no other list.
//
//gf:noalloc
func (it *Intersector) ProbePinned(lists [][]VertexID, pinned int, out, scratch []VertexID) (result, newScratch []VertexID, ok bool) {
	first := -1
	for i := range lists {
		if i != pinned && (first < 0 || len(lists[i]) < len(lists[first])) {
			first = i
		}
	}
	if first < 0 || len(lists[first]) >= PinCutoff*len(it.pinned) {
		return out, scratch, false
	}
	it.Counters.PinnedProbe++
	out = probeMarks(it.marks, lists[first], out)
	if len(lists) > 2 {
		out, scratch = it.foldRest(lists, pinned, first, out, scratch)
	}
	return out, scratch, true
}

// foldRest intersects r, which already stands for lists[a] ∩ lists[b],
// with every other list.
func (it *Intersector) foldRest(lists [][]VertexID, a, b int, r, scratch []VertexID) (result, newScratch []VertexID) {
	for i, l := range lists {
		if i == a || i == b {
			continue
		}
		if len(r) == 0 {
			break
		}
		scratch = it.intersectInto(r, l, scratch)
		r, scratch = scratch, r
	}
	return r, scratch
}

// probeMarks writes the elements of list whose bit is set in the pin
// bitmap into out (truncated first), in list order: O(len(list)) with one
// word load per element, whatever the pinned list's length. IDs beyond
// the bitmap are absent. Kept out of line: inlined into its caller the loop
// spills to the stack on every element.
//
//go:noinline
func probeMarks(marks []uint64, list, out []VertexID) []VertexID {
	out = out[:0]
	for _, x := range list {
		if w := uint(x >> 6); w < uint(len(marks)) && marks[w]&(1<<(x&63)) != 0 {
			out = append(out, x)
		}
	}
	return out
}
