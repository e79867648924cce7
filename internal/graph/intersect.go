package graph

// gallopThreshold is the size ratio beyond which the sorted-array kernel
// switches from in-tandem merging to galloping (exponential) search into
// the longer list.
const gallopThreshold = 32

// BitsetProbeRatio is the size ratio beyond which probing the longer
// list's bitset index (when one exists) beats scanning it: the probe
// kernel pays one random word load per short-list element, the merge
// kernel pays a sequential pass over both lists. Exported so E/I
// operators can pre-filter which descriptors are worth a bitset lookup.
const BitsetProbeRatio = 4

// pinCutoff is the size ratio beyond which an intersection leaves the
// pinned operand's bitmap alone: sweeping a partner list pinCutoff times
// the pinned list's length through the bitmap reads every element of the
// partner, where galloping the pinned list into it (or probing the
// partner's hub index) reads a handful per pinned element. Below it the
// sweep wins whichever side is longer — it never reads the pinned list.
// Set from BenchmarkIntersectAdjacency (internal/exec), whose comment
// records the measurements.
const pinCutoff = gallopThreshold

// KernelCounters tallies intersection-kernel dispatches by kind. The
// engine picks a kernel per pairwise intersection, so one k-way E/I call
// can increment several counters.
type KernelCounters struct {
	// Merge counts in-tandem sorted-merge intersections.
	Merge int64
	// Gallop counts galloping (exponential search) intersections.
	Gallop int64
	// BitsetProbe counts short-list probes into a hub bitset index.
	BitsetProbe int64
	// BitsetAnd counts word-wise ANDs of two hub bitset indexes.
	BitsetAnd int64
	// PinnedProbe counts sweeps of a list through the bitmap of the
	// operand an Intersector has pinned for the current run.
	PinnedProbe int64
}

// Add accumulates other into c.
func (c *KernelCounters) Add(other KernelCounters) {
	c.Merge += other.Merge
	c.Gallop += other.Gallop
	c.BitsetProbe += other.BitsetProbe
	c.BitsetAnd += other.BitsetAnd
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

// listRef pairs one adjacency run with its optional bitset index inside
// an Intersector's reusable ordering scratch.
type listRef struct {
	list []VertexID
	bits *Bitset
}

// Intersector is the degree-adaptive k-way intersection engine plus the
// per-caller scratch it needs to run allocation-free: the shortest-first
// ordering of list headers that IntersectK previously allocated per call
// now lives here, owned by the E/I stage state (one Intersector per
// worker stage, reused across every tuple), and so does the pinned
// operand of IntersectRun. Kernel dispatches are tallied in Counters. An
// Intersector is not safe for concurrent use; the zero value is ready.
type Intersector struct {
	// Counters tallies kernel dispatches; callers flush and reset it when
	// aggregating profiles.
	Counters KernelCounters
	// Words is the size, in 64-ID words, the pin bitmap is given when it is
	// first needed: ⌈V/64⌉ of the graph the lists come from, so one
	// allocation serves every list. Left zero, the bitmap grows to the
	// largest ID pinned.
	Words int
	refs  []listRef

	// The pinned operand (see IntersectRun): marks has exactly the bits of
	// pinIDs set, pinBit is the operand's bit in IntersectRun's numbering
	// (0: nothing pinned, marks all zero). pinIDs is a copy — the caller's
	// list may sit in a buffer that is refilled long before the unpin.
	marks  []uint64
	pinIDs []VertexID
	pinBit uint32
}

// intersectPair intersects the two smallest refs into out, dispatching
// on representation: word-AND when both sides are indexed and dense
// enough that scanning every word beats walking the short list, a bitset
// probe when the long side is indexed and much longer, and the sorted
// merge/gallop kernel otherwise.
func (it *Intersector) intersectPair(a, b listRef, out []VertexID) []VertexID {
	la, lb := len(a.list), len(b.list)
	if la > lb {
		a, b = b, a
		la, lb = lb, la
	}
	if la == 0 {
		return out[:0]
	}
	switch {
	case a.bits != nil && b.bits != nil && 2*andSpan(a.bits, b.bits) <= la+lb:
		// Dense enough that scanning the span overlap beats walking the
		// lists; a zero overlap proves emptiness without reading a word.
		it.Counters.BitsetAnd++
		return IntersectBitsets(a.bits, b.bits, out)
	case b.bits != nil && lb >= BitsetProbeRatio*la:
		it.Counters.BitsetProbe++
		return IntersectBitset(a.list, b.bits, out)
	default:
		r, galloped := intersectSorted(a.list, b.list, out)
		if galloped {
			it.Counters.Gallop++
		} else {
			it.Counters.Merge++
		}
		return r
	}
}

// intersectInto intersects the running result r with ref, writing into
// out. r is a plain sorted list (intermediate results lose their index),
// so only the probe and sorted kernels apply.
func (it *Intersector) intersectInto(r []VertexID, ref listRef, out []VertexID) []VertexID {
	if ref.bits != nil && len(ref.list) >= BitsetProbeRatio*len(r) {
		it.Counters.BitsetProbe++
		return IntersectBitset(r, ref.bits, out)
	}
	res, galloped := intersectSorted(r, ref.list, out)
	if galloped {
		it.Counters.Gallop++
	} else {
		it.Counters.Merge++
	}
	return res
}

// IntersectK intersects any number of ID-sorted lists, shortest-first,
// picking a kernel per pairwise step from the lists' sizes and available
// bitset indexes. bits, when non-nil, must align with lists (nil entries
// mean no index). The result is written into out, ping-ponging with
// scratch between steps exactly like the package-level IntersectK; the
// caller keeps both returned buffers. After warm-up the call performs no
// allocations.
//
//gf:noalloc
func (it *Intersector) IntersectK(lists [][]VertexID, bits []*Bitset, out, scratch []VertexID) (result, newScratch []VertexID) {
	return it.IntersectRun(nil, lists, bits, 0, out, scratch)
}

// order loads the operands (lists with their optional indexes, and seed
// when non-nil) into the reusable ref scratch, shortest first to bound
// intermediate sizes, leaving out the operand whose IntersectRun bit is
// skip (0: none). Insertion sort: descriptor counts are tiny and
// sort.Slice would allocate its closure on every call. bits may be
// shorter than lists (callers pass an empty slice when the pre-filter
// proves no index can help); missing entries mean no index.
func (it *Intersector) order(seed []VertexID, lists [][]VertexID, bits []*Bitset, skip uint32) []listRef {
	it.refs = it.refs[:0]
	if seed != nil && skip != 1 {
		it.refs = append(it.refs, listRef{list: seed})
	}
	for i, l := range lists {
		if skip == 2<<uint(i) {
			continue
		}
		ref := listRef{list: l}
		if i < len(bits) {
			ref.bits = bits[i]
		}
		it.refs = append(it.refs, ref)
	}
	refs := it.refs
	for i := 1; i < len(refs); i++ {
		for j := i; j > 0 && len(refs[j].list) < len(refs[j-1].list); j-- {
			refs[j], refs[j-1] = refs[j-1], refs[j]
		}
	}
	return refs
}

// IntersectRun is the entry point of a caller that computes a run of
// intersections over the same operand positions — an E/I stage working
// through a sorted batch. With seed nil it is IntersectK over lists; with
// seed — an already-computed sorted set, such as the extension set an
// upstream E/I stage carried down — it is seed ∩ lists, seed first and
// lists shortest-first through the same per-step kernel dispatch (seed
// carries no index, so each step is a bitset probe, a gallop or a merge
// of the running result into the next list); with no lists the result is
// a copy of seed. bits aligns with lists as in IntersectK. The result is
// written into out, ping-ponging with scratch; neither may alias an
// operand, which are only read.
//
// same says which operands hold exactly what they held in the previous
// IntersectRun call on this Intersector: bit 0 is the seed, bit i+1 is
// lists[i]. An operand seen again is pinned — its IDs are set in a bitmap
// the Intersector keeps, and copied so the bitmap can be cleared whatever
// becomes of the caller's list — and for as long as same keeps naming it,
// each intersection sweeps the shortest other operand through the bitmap
// and folds the remaining ones in as IntersectK would: the pinned list is
// not read again. One operand is pinned at a time, the lowest-numbered
// repeating one; an intersection whose shortest other operand is
// pinCutoff times the pinned one's length takes the ordinary dispatch.
// The caller vouches for same; zero is always safe.
//
//gf:noalloc
func (it *Intersector) IntersectRun(seed []VertexID, lists [][]VertexID, bits []*Bitset, same uint32, out, scratch []VertexID) (result, newScratch []VertexID) {
	if same|it.pinBit != 0 {
		if it.pinBit&same == 0 {
			it.repin(seed, lists, same)
		}
		if it.pinBit != 0 {
			refs := it.order(seed, lists, bits, it.pinBit)
			if len(refs[0].list) < pinCutoff*len(it.pinIDs) {
				it.Counters.PinnedProbe++
				out = it.probeMarks(refs[0].list, out)
				for i := 1; i < len(refs) && len(out) > 0; i++ {
					scratch = it.intersectInto(out, refs[i], scratch)
					out, scratch = scratch, out
				}
				return out, scratch
			}
		}
	}
	if seed == nil {
		switch len(lists) {
		case 0:
			return out[:0], scratch
		case 1:
			out = append(out[:0], lists[0]...)
			return out, scratch
		}
		refs := it.order(nil, lists, bits, 0)
		out = it.intersectPair(refs[0], refs[1], out)
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
	for _, ref := range it.order(nil, lists, bits, 0) {
		scratch = it.intersectInto(r, ref, scratch)
		out, scratch = scratch, out
		r = out
		if len(r) == 0 {
			break
		}
	}
	return out, scratch
}

// repin is called when same no longer names the pinned operand (or none
// is pinned): it clears the bitmap and pins the lowest-numbered operand
// same does name, if the intersection has two operands or more.
func (it *Intersector) repin(seed []VertexID, lists [][]VertexID, same uint32) {
	it.Unpin()
	operands := len(lists)
	if seed != nil {
		operands++
	}
	if same == 0 || operands < 2 {
		return
	}
	if same&1 != 0 {
		it.pinBit = 1
		it.pin(seed)
		return
	}
	for i, l := range lists {
		if same&(2<<uint(i)) != 0 {
			it.pinBit = 2 << uint(i)
			it.pin(l)
			return
		}
	}
}

// pin sets list's IDs in the bitmap and keeps a copy of them to clear it
// by; nothing may be pinned.
func (it *Intersector) pin(list []VertexID) {
	it.pinIDs = append(it.pinIDs[:0], list...) //gf:allowalloc grows to the longest list pinned, then reused
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

// Unpin clears the bitmap (by the saved IDs, so a run abandoned halfway —
// an early stop, a cancelled query — is cleaned up the same way) and
// forgets the pinned operand. The next IntersectRun call need not pass
// same = 0.
func (it *Intersector) Unpin() {
	for _, v := range it.pinIDs {
		it.marks[v>>6] = 0
	}
	it.pinIDs = it.pinIDs[:0]
	it.pinBit = 0
}

// PinBytes is the memory the pinned-operand scratch holds: the bitmap and
// the saved IDs. Zero until something has been pinned.
func (it *Intersector) PinBytes() int64 {
	return int64(cap(it.marks))*8 + int64(cap(it.pinIDs))*4
}

// probeMarks writes the elements of list whose bit is set in the pin
// bitmap into out (truncated first), in list order: O(len(list)) with one
// word load per element, whatever the pinned list's length. IDs beyond
// the bitmap are absent.
func (it *Intersector) probeMarks(list, out []VertexID) []VertexID {
	out = out[:0]
	marks := it.marks
	for _, x := range list {
		if w := uint(x >> 6); w < uint(len(marks)) && marks[w]&(1<<(x&63)) != 0 {
			out = append(out, x)
		}
	}
	return out
}

// IntersectK intersects any number of ID-sorted lists using iterative 2-way
// intersections, shortest-first, as the paper's E/I operator does. It writes
// the result into out and returns it; scratch is reused between calls (pass
// nil on first use and keep the returned scratch).
//
// This entry point allocates a fresh ordering scratch per call; hot
// paths hold an Intersector instead, which also enables the bitset
// kernels over hub-indexed lists.
//
//gf:noalloc
func IntersectK(lists [][]VertexID, out, scratch []VertexID) (result, newScratch []VertexID) {
	var it Intersector
	return it.IntersectK(lists, nil, out, scratch)
}
