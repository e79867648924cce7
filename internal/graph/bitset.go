package graph

import "math/bits"

// DefaultHubThreshold is the partition size at which the builder
// materialises a bitset adjacency index alongside the sorted CSR run.
// The EmptyHeaded-style rule of thumb: below it, sorted-array kernels
// (merge, galloping) win on cache locality; above it, O(1) membership
// probes and word-wide ANDs win. Tune per store with the hub-threshold
// knob (Builder.SetHubThreshold / graphflow.Options.HubDegreeThreshold).
const DefaultHubThreshold = 256

// resolveHubThreshold maps the public knob convention onto an effective
// partition-size floor: 0 takes the default, negative disables indexing
// entirely (no partition qualifies).
func resolveHubThreshold(t int) int {
	if t == 0 {
		return DefaultHubThreshold
	}
	return t
}

// Bitset is a bitmap over vertex IDs: the alternative representation of
// one hub vertex's adjacency partition. The sorted VertexID run stays
// the canonical representation (iteration order, duplicates semantics);
// the bitset is a secondary index that turns membership into one word
// load and pairwise intersection into a word AND. The words are
// range-compressed to the partition's ID span — clustered neighbour IDs
// cost far less than ceil(V/8) bytes — with wordBase recording where
// the span starts. Bitsets are immutable after construction and safe
// for concurrent readers.
type Bitset struct {
	words    []uint64
	wordBase int // index (in 64-ID units) of words[0] within the universe
	count    int
}

// NewBitsetFromSorted builds the bitset of an ID-sorted neighbour run,
// spanning only the run's [min, max] ID range.
func NewBitsetFromSorted(list []VertexID) *Bitset {
	b := &Bitset{count: len(list)}
	if len(list) == 0 {
		return b
	}
	b.wordBase = int(list[0] >> 6)
	b.words = make([]uint64, int(list[len(list)-1]>>6)-b.wordBase+1)
	for _, v := range list {
		b.words[int(v>>6)-b.wordBase] |= 1 << (v & 63)
	}
	return b
}

// Contains reports whether v is set. IDs outside the bitset's span —
// including vertices appended to a live overlay after the base was
// frozen — are reported absent rather than read out of bounds.
func (b *Bitset) Contains(v VertexID) bool {
	w := int(v>>6) - b.wordBase
	return w >= 0 && w < len(b.words) && b.words[w]&(1<<(v&63)) != 0
}

// Len returns the number of set bits (the partition's degree).
func (b *Bitset) Len() int { return b.count }

// WordLen returns the number of 64-bit words spanning the partition's ID
// range — the memory unit of the index and the upper bound of a word-AND
// scan.
func (b *Bitset) WordLen() int { return len(b.words) }

// spanOverlap returns the [lo, hi) word range both bitsets cover — the
// exact range the word-AND kernel scans.
func spanOverlap(a, b *Bitset) (lo, hi int) {
	lo, hi = a.wordBase, a.wordBase+len(a.words)
	if b.wordBase > lo {
		lo = b.wordBase
	}
	if e := b.wordBase + len(b.words); e < hi {
		hi = e
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// andSpan returns the number of words a word-AND of a and b scans: the
// overlap of their ID spans. Zero means the spans are disjoint and the
// intersection is empty without reading a single word.
func andSpan(a, b *Bitset) int {
	lo, hi := spanOverlap(a, b)
	return hi - lo
}

// IntersectBitset writes list ∩ b into out (truncated first; may be nil)
// and returns it: the probe kernel, O(len(list)) regardless of the hub's
// degree. The result keeps list's sorted order. Safe when out aliases
// list (writes never outrun reads).
func IntersectBitset(list []VertexID, b *Bitset, out []VertexID) []VertexID {
	out = out[:0]
	for _, x := range list {
		if b.Contains(x) {
			out = append(out, x)
		}
	}
	return out
}

// IntersectBitsets writes the IDs common to a and b into out (truncated
// first; may be nil), in ascending order: the word-AND kernel, O(span
// overlap) plus the output size. Worth it only when both sides are dense
// enough that scanning every overlapping word beats walking the shorter
// sorted list — or when the spans are disjoint, which costs nothing.
func IntersectBitsets(a, b *Bitset, out []VertexID) []VertexID {
	out = out[:0]
	lo, hi := spanOverlap(a, b)
	for w := lo; w < hi; w++ {
		m := a.words[w-a.wordBase] & b.words[w-b.wordBase]
		base := VertexID(w) << 6
		for m != 0 {
			out = append(out, base+VertexID(bits.TrailingZeros64(m)))
			m &= m - 1
		}
	}
	return out
}

// BitsetFetchFloor returns the smallest list length for which fetching a
// hub bitset index can pay off in a k-way intersection over lists: the
// long side of a probe (>= BitsetProbeRatio x the shortest list) or a
// plausible word-AND participant (dense against nWords, the universe's
// word count). ok is false when some list is empty — the intersection is
// already known empty and no index should be consulted at all.
func BitsetFetchFloor(lists [][]VertexID, nWords int) (floor int, ok bool) {
	minLen := len(lists[0])
	for _, l := range lists[1:] {
		if len(l) < minLen {
			minLen = len(l)
		}
	}
	if minLen == 0 {
		return 0, false
	}
	floor = BitsetProbeRatio * minLen
	if w := (nWords + 1) / 2; w < floor {
		floor = w
	}
	return floor, true
}
