package query

// A Memo maps a subquery — a vertex mask, alone or with a vertex v
// extending it — to a value of V in one flat open-addressing table: what
// a planner remembers about one query while it plans it. The keys are
// dense and few (a subquery's statistics are asked for again and again),
// so a probe is a multiply and a short scan of one array. The zero value
// is empty.
type Memo[V any] struct {
	slots []memoSlot[V]
	n     int
	shift uint // 64 − log2(len(slots))
}

// memoSlot is one slot of a Memo: key is memoKey of what val is kept for,
// 0 for a free slot.
type memoSlot[V any] struct {
	key uint64
	val V
}

// memoKey packs (mask, v), v ≥ −1, into a non-zero word: v+2 fits the low
// five bits since v < MaxVertices.
func memoKey(mask Mask, v int) uint64 { return uint64(mask)<<5 | uint64(v+2) }

// slot returns the slot holding k, or the free slot where k belongs.
func (m *Memo[V]) slot(k uint64) *memoSlot[V] {
	last := len(m.slots) - 1
	i := int(k * 0x9E3779B97F4A7C15 >> m.shift)
	for m.slots[i].key != 0 && m.slots[i].key != k {
		i = (i + 1) & last
	}
	return &m.slots[i]
}

// Get returns the value kept for (mask, v) and whether there is one;
// v = −1 keys mask alone.
func (m *Memo[V]) Get(mask Mask, v int) (V, bool) {
	if m.n == 0 {
		var zero V
		return zero, false
	}
	s := m.slot(memoKey(mask, v))
	return s.val, s.key != 0
}

// Put keeps val for (mask, v), replacing any value kept for it.
func (m *Memo[V]) Put(mask Mask, v int, val V) {
	if 2*(m.n+1) > len(m.slots) {
		m.grow()
	}
	k := memoKey(mask, v)
	s := m.slot(k)
	if s.key == 0 {
		s.key = k
		m.n++
	}
	s.val = val
}

// grow doubles the table (64 slots at first: a 6-vertex query's
// subqueries), keeping it at most half full.
//
//gf:allowalloc a per-query memo grows a logarithmic number of times while its query is planned
func (m *Memo[V]) grow() {
	old := m.slots
	m.slots = make([]memoSlot[V], max(64, 2*len(old)))
	m.shift = 64
	for s := len(m.slots); s > 1; s >>= 1 {
		m.shift--
	}
	for _, s := range old {
		if s.key != 0 {
			*m.slot(s.key) = s
		}
	}
}
