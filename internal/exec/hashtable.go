package exec

import (
	"math/bits"
	"sync"

	"graphflow/internal/graph"
	"graphflow/internal/resource"
)

// hashTable is the materialised build side of a HASH-JOIN: one flat,
// pointer-free layout for every key width.
//
// It has two phases. While the build pipeline runs, each worker appends
// its rows — whole batches, transposed — to a fragment of its own and
// checks out a larger one when that is full, so the arena grows without
// copying and parallel builds share nothing but the checkout. seal then
// counting-sorts every row by the hash of its join vertices into rows,
// with offs as the CSR-style directory over it: bucket b's rows are
// rows[offs[b]*rowWidth : offs[b+1]*rowWidth], and inside a bucket all
// rows of one key form one contiguous run in build order. Keys are not
// stored: equality is read from the rows' own key slots. Nothing in the
// table holds a pointer, so the collector never scans it, and every
// buffer survives reset for the next run of the pipeline (tables are
// pooled per compiled pipeline, like workers).
type hashTable struct {
	keySlots []int // slots in the build tuple layout carrying join vertices
	rowWidth int

	// Build phase. mu guards the fragment checkout: frags[:nfrags] are in
	// use, the rest (left by earlier runs of the pooled table) are handed
	// out before anything is allocated, and arena is the capacity handed
	// out so far.
	mu     sync.Mutex
	frags  []*tableFragment
	nfrags int
	arena  int

	// Sealed form. There are 1<<(64-shift) buckets — the smallest power of
	// two holding one bucket per row — and a key's bucket is the top bits
	// of its hash.
	n     int
	shift uint
	offs  []uint32
	rows  []graph.VertexID
	// scratch holds the tail of a bucket shared by several keys while
	// groupBucket rewrites it run by run.
	scratch []graph.VertexID
	// offsMetered, rowsMetered and scratchMetered are the capacities
	// already charged to the current run's memory budget.
	offsMetered, rowsMetered, scratchMetered int
}

// tableFragment is a piece of the arena owned by one build worker:
// row-major tuples in the order the worker produced them.
type tableFragment struct {
	rows    []graph.VertexID
	metered int // capacity charged to the run's memory budget
}

// newHashTable builds an empty table keyed by keySlots (join-vertex slots
// in the build tuple layout, precomputed at plan compile time).
func newHashTable(keySlots []int, rowWidth int) *hashTable {
	return &hashTable{keySlots: keySlots, rowWidth: rowWidth}
}

// reset empties the table for a fresh run, keeping every buffer. What is
// kept is held on behalf of the next run, whose budget is charged for it
// on first use.
func (h *hashTable) reset() {
	for _, f := range h.frags {
		f.rows, f.metered = f.rows[:0], 0
	}
	h.nfrags, h.arena = 0, 0
	h.n = 0
	h.offsMetered, h.rowsMetered, h.scratchMetered = 0, 0, 0
}

// len is the number of build rows of the sealed table.
func (h *hashTable) len() int { return h.n }

// minFragmentWords floors a fragment's capacity, so a build that trickles
// in row by row does not start with a run of tiny fragments.
const minFragmentWords = 1024

// fragment hands the calling build worker an empty fragment with room for
// at least words vertex IDs, or nil when the run's budget refuses it. A
// new fragment is half as large as everything handed out before it: the
// arena grows geometrically, at most a third of it is slack, and nothing
// already written moves.
//
//gf:allowalloc one fragment header per growth step of the arena, kept by the pooled table
func (h *hashTable) fragment(words int, mem *resource.Budget) *tableFragment {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.nfrags == len(h.frags) {
		h.frags = append(h.frags, &tableFragment{})
	}
	f := h.frags[h.nfrags]
	var ok bool
	if f.rows, ok = reserveCap(f.rows, max(words, h.arena/2, minFragmentWords), &f.metered, mem); !ok {
		return nil
	}
	h.nfrags++
	h.arena += cap(f.rows)
	return f
}

// reserveCap returns buf with capacity for at least want elements,
// contents kept. Capacity not yet charged to the run is reserved from mem
// before anything is allocated; a refused reservation (which latches the
// budget's exceeded state) returns ok = false with buf as it was.
//
//gf:allowalloc table storage: a logarithmic number of buffers per build, reused by every later run of the pooled table
func reserveCap[T ~uint32](buf []T, want int, metered *int, mem *resource.Budget) (_ []T, ok bool) {
	if want < cap(buf) {
		want = cap(buf)
	}
	if want > *metered {
		if !mem.Reserve(int64(want-*metered) * vertexIDBytes) {
			return buf, false
		}
		*metered = want
	}
	if want > cap(buf) {
		grown := make([]T, len(buf), want)
		copy(grown, buf)
		buf = grown
	}
	return buf, true
}

// appendBatch transposes every row of b into the fragment, which has the
// room (worker.admitBuild).
//
//gf:noalloc
func (f *tableFragment) appendBatch(b *tupleBatch) {
	w := len(b.cols)
	base := len(f.rows)
	f.rows = f.rows[:base+b.n*w]
	for c, col := range b.cols {
		dst := f.rows[base+c:]
		for r, v := range col[:b.n] {
			dst[r*w] = v
		}
	}
}

// hashMul is 2^64 / φ: multiplying by it spreads consecutive vertex IDs
// evenly over the top bits the directory indexes by.
const hashMul = 0x9E3779B97F4A7C15

// mixKey folds one join vertex into a key hash.
func mixKey(h uint64, v graph.VertexID) uint64 {
	h = (h ^ uint64(v)) * hashMul
	return h ^ h>>32
}

// bucketOfRow is the directory bucket of a build row.
func (h *hashTable) bucketOfRow(row []graph.VertexID) uint64 {
	k := uint64(0)
	for _, s := range h.keySlots {
		k = mixKey(k, row[s])
	}
	return k >> h.shift
}

// sameKey reports whether two build rows carry the same join vertices.
func (h *hashTable) sameKey(a, b []graph.VertexID) bool {
	for _, s := range h.keySlots {
		if a[s] != b[s] {
			return false
		}
	}
	return true
}

// hasKey reports whether a build row carries the gathered key (one value
// per join vertex, in key-slot order).
func (h *hashTable) hasKey(row, key []graph.VertexID) bool {
	for i, s := range h.keySlots {
		if row[s] != key[i] {
			return false
		}
	}
	return true
}

// seal turns the fragments into the probe-side form: a stable counting
// sort by bucket (count, prefix-sum, scatter — the rows are hashed twice
// rather than remembered), then one pass that regroups the few buckets
// more than one key landed in. Directory and rows are sized from the
// final row count and charged to mem; seal reports false when the budget
// refuses them, leaving the table unusable for probing.
func (h *hashTable) seal(mem *resource.Budget) bool {
	w := h.rowWidth
	frags := h.frags[:h.nfrags]
	n := 0
	for _, f := range frags {
		n += len(f.rows) / w
	}
	if n == 0 {
		return true
	}
	logBuckets := bits.Len(uint(n - 1))
	nb := 1 << logBuckets
	h.shift = uint(64 - logBuckets)
	var ok bool
	// Two spare entries: counts land at offs[b+2], the prefix sum leaves
	// bucket b's start in offs[b+1], and the scatter advances that entry
	// to b's end — which is where offs[b+1] has to point afterwards.
	if h.offs, ok = reserveCap(h.offs, nb+2, &h.offsMetered, mem); !ok {
		return false
	}
	if h.rows, ok = reserveCap(h.rows, n*w, &h.rowsMetered, mem); !ok {
		return false
	}
	offs := h.offs[:nb+2]
	clear(offs)
	for _, f := range frags {
		for r := 0; r < len(f.rows); r += w {
			offs[h.bucketOfRow(f.rows[r:r+w])+2]++
		}
	}
	for b := 2; b < len(offs); b++ {
		offs[b] += offs[b-1]
	}
	rows := h.rows[:n*w]
	for _, f := range frags {
		for r := 0; r < len(f.rows); r += w {
			row := f.rows[r : r+w]
			b := h.bucketOfRow(row)
			copy(rows[int(offs[b+1])*w:], row)
			offs[b+1]++
		}
	}
	h.offs, h.rows = offs[:nb+1], rows
	for b := 0; b < nb; b++ {
		if lo, hi := int(offs[b]), int(offs[b+1]); hi-lo > 1 && !h.groupBucket(lo, hi, mem) {
			return false
		}
	}
	h.n = n
	return true
}

// groupBucket makes every key of the bucket holding rows [lo, hi) one
// contiguous run: keys in order of first appearance, build order kept
// inside a run. Almost every bucket holds one key and is left as it is;
// a shared one costs a sweep of its tail per distinct key.
func (h *hashTable) groupBucket(lo, hi int, mem *resource.Budget) bool {
	w := h.rowWidth
	rows := h.rows
	key := rows[lo*w : lo*w+w]
	out := lo + 1
	for out < hi && h.sameKey(key, rows[out*w:out*w+w]) {
		out++
	}
	if out == hi {
		return true
	}
	var ok bool
	if h.scratch, ok = reserveCap(h.scratch[:0], (hi-out)*w, &h.scratchMetered, mem); !ok {
		return false
	}
	// rest is what is not placed yet; each sweep moves the rows carrying key
	// behind the run being written at out and compacts the others to the
	// front of rest. key always aliases a row already in place.
	rest := append(h.scratch, rows[out*w:hi*w]...)
	h.scratch = rest
	for {
		keep := 0
		for r := 0; r < len(rest); r += w {
			if row := rest[r : r+w]; h.sameKey(key, row) {
				copy(rows[out*w:], row)
				out++
			} else {
				copy(rest[keep:], row)
				keep += w
			}
		}
		if keep == 0 {
			return true
		}
		copy(rows[out*w:], rest[:w])
		key = rows[out*w : out*w+w]
		out++
		rest = rest[w:keep]
	}
}

// lookupKey returns the build rows whose join vertices equal key (one
// value per join vertex, in key-slot order) as one row-major run aliasing
// table storage: len/rowWidth rows, in build order.
//
//gf:noalloc
func (h *hashTable) lookupKey(key []graph.VertexID) []graph.VertexID {
	if h.n == 0 {
		return nil
	}
	k := uint64(0)
	for _, v := range key {
		k = mixKey(k, v)
	}
	b := k >> h.shift
	lo, hi := int(h.offs[b]), int(h.offs[b+1])
	w := h.rowWidth
	rows := h.rows
	for lo < hi && !h.hasKey(rows[lo*w:lo*w+w], key) {
		lo++
	}
	if lo == hi {
		return nil
	}
	// The usual bucket is one run: its last row has the key too.
	end := hi
	if !h.hasKey(rows[(hi-1)*w:hi*w], key) {
		for end = lo + 1; h.hasKey(rows[end*w:end*w+w], key); end++ {
		}
	}
	return rows[lo*w : end*w]
}
