package catalogue

import (
	"encoding/binary"
	"math/bits"
)

// entryTable holds a catalogue's entries in one flat, pointer-free
// layout, numbered in the order they were added. Entry e's canonical
// code is keys[start(keyEnd, e):keyEnd[e]] and its list sizes, in
// canonical descriptor order, lists[start(listEnd, e):listEnd[e]];
// mu[e] and samples[e] are its µ and sample count. index is an
// open-addressed hash set of entry numbers plus one (zero marks an empty
// slot): a power of two long, at most half full, probed linearly, and
// its equality check reads the key from the arena. Nothing holds a
// pointer, so the collector never scans the table, and a catalogue of n
// entries is seven slices, not n heap objects.
//
// While Build samples, mu and lists hold sums and samples the instances
// summed over; average turns them into averages in place.
type entryTable struct {
	keys    []byte
	keyEnd  []uint32
	mu      []float64
	samples []uint32
	listEnd []uint32
	lists   []float64
	index   []uint32
}

// minIndexSlots is the index's length once the first entry is added.
const minIndexSlots = 8

// start is where element i's run begins in an arena whose ends are ends.
func start(ends []uint32, i int) uint32 {
	if i == 0 {
		return 0
	}
	return ends[i-1]
}

// len is the number of entries.
func (t *entryTable) len() int { return len(t.keyEnd) }

// key is entry e's canonical code, aliasing the arena.
func (t *entryTable) key(e int) []byte { return t.keys[start(t.keyEnd, e):t.keyEnd[e]] }

// listsOf is entry e's list sizes, aliasing the table.
func (t *entryTable) listsOf(e int) []float64 {
	hi := t.listEnd[e]
	return t.lists[start(t.listEnd, e):hi:hi]
}

// entry is entry e as a value; its ListSizes alias the table.
func (t *entryTable) entry(e int) Entry {
	return Entry{ListSizes: t.listsOf(e), Mu: t.mu[e], Samples: int(t.samples[e])}
}

// hashMul is 2^64 / φ: multiplying by it spreads a word over the top
// bits the index is addressed by.
const hashMul = 0x9E3779B97F4A7C15

// hashKey hashes a canonical code eight bytes at a time.
func hashKey(k []byte) uint64 {
	h := uint64(len(k)) * hashMul
	for ; len(k) >= 8; k = k[8:] {
		h = (h ^ binary.LittleEndian.Uint64(k)) * hashMul
		h ^= h >> 32
	}
	var tail uint64
	for i, c := range k {
		tail |= uint64(c) << (8 * i)
	}
	h = (h ^ tail) * hashMul
	return h ^ h>>32
}

// home is k's first index slot: the top bits of its hash.
func (t *entryTable) home(k []byte) int {
	return int(hashKey(k) >> bits.LeadingZeros64(uint64(len(t.index)-1)))
}

// find returns the number of the entry keyed k, or -1 and the empty
// index slot k would take.
//
//gf:noalloc
func (t *entryTable) find(k []byte) (entry, slot int) {
	if len(t.index) == 0 {
		return -1, 0
	}
	mask := len(t.index) - 1
	for s := t.home(k); ; s = (s + 1) & mask {
		e := int(t.index[s]) - 1
		if e < 0 {
			return -1, s
		}
		if string(t.key(e)) == string(k) { //gf:allowalloc comparing converted byte slices reads them in place
			return e, s
		}
	}
}

// add returns the number of the entry keyed k, first appending one with
// nlists list sizes, µ and samples all zero if there is none.
func (t *entryTable) add(k []byte, nlists int) int {
	e, s := t.find(k)
	if e >= 0 {
		return e
	}
	e = t.len()
	if 2*(e+1) > len(t.index) {
		t.grow()
		_, s = t.find(k)
	}
	t.index[s] = uint32(e + 1)
	t.keys = append(t.keys, k...)
	t.keyEnd = append(t.keyEnd, uint32(len(t.keys)))
	t.mu = append(t.mu, 0)
	t.samples = append(t.samples, 0)
	for range nlists {
		t.lists = append(t.lists, 0)
	}
	t.listEnd = append(t.listEnd, uint32(len(t.lists)))
	return e
}

// grow doubles the index and re-inserts every entry.
func (t *entryTable) grow() {
	t.index = make([]uint32, max(minIndexSlots, 2*len(t.index)))
	mask := len(t.index) - 1
	for e := range t.keyEnd {
		s := t.home(t.key(e))
		for t.index[s] != 0 {
			s = (s + 1) & mask
		}
		t.index[s] = uint32(e + 1)
	}
}

// average divides every entry's sums by its sample count, in place.
func (t *entryTable) average() {
	for e, n := range t.samples {
		if n == 0 {
			continue
		}
		lists := t.listsOf(e)
		for i := range lists {
			lists[i] /= float64(n)
		}
		t.mu[e] /= float64(n)
	}
}

// trim shrinks every slice to its length; the index stays as it is.
func (t *entryTable) trim() {
	t.keys = exact(t.keys)
	t.keyEnd = exact(t.keyEnd)
	t.mu = exact(t.mu)
	t.samples = exact(t.samples)
	t.listEnd = exact(t.listEnd)
	t.lists = exact(t.lists)
}

// exact returns s in an array of exactly its length.
func exact[T any](s []T) []T {
	if len(s) == cap(s) {
		return s
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// bytes is what the table holds: every slice's capacity times its
// element size.
func (t *entryTable) bytes() int64 {
	return int64(cap(t.keys)) +
		4*int64(cap(t.keyEnd)+cap(t.samples)+cap(t.listEnd)+cap(t.index)) +
		8*int64(cap(t.mu)+cap(t.lists))
}
