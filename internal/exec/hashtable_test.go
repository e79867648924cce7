package exec

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"graphflow/internal/graph"
)

// oracleTable is the map-of-slices table hashTable replaced — one heap
// row per build tuple, uint64 keys up to two join vertices, byte-string
// keys beyond — kept as the reference the flat layout is checked against.
type oracleTable struct {
	keySlots []int
	packed   map[uint64][][]graph.VertexID
	wide     map[string][][]graph.VertexID
}

func newOracleTable(keySlots []int) *oracleTable {
	o := &oracleTable{keySlots: keySlots}
	if len(keySlots) <= 2 {
		o.packed = make(map[uint64][][]graph.VertexID)
	} else {
		o.wide = make(map[string][][]graph.VertexID)
	}
	return o
}

func oraclePackedKey(key []graph.VertexID) uint64 {
	k := uint64(key[0])
	if len(key) == 2 {
		k = k<<32 | uint64(key[1])
	}
	return k
}

func oracleWideKey(key []graph.VertexID) string {
	buf := make([]byte, 4*len(key))
	for i, v := range key {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
	}
	return string(buf)
}

func (o *oracleTable) insert(tuple []graph.VertexID) {
	row := slices.Clone(tuple)
	key := make([]graph.VertexID, len(o.keySlots))
	for i, s := range o.keySlots {
		key[i] = tuple[s]
	}
	if o.packed != nil {
		k := oraclePackedKey(key)
		o.packed[k] = append(o.packed[k], row)
		return
	}
	k := oracleWideKey(key)
	o.wide[k] = append(o.wide[k], row)
}

func (o *oracleTable) lookupKey(key []graph.VertexID) [][]graph.VertexID {
	if o.packed != nil {
		return o.packed[oraclePackedKey(key)]
	}
	return o.wide[oracleWideKey(key)]
}

// footprintBytes is the memory the table holds: every fragment, the
// sealed rows, the directory and the regrouping scratch, by capacity.
func (h *hashTable) footprintBytes() int64 {
	words := cap(h.offs) + cap(h.rows) + cap(h.scratch)
	for _, f := range h.frags {
		words += cap(f.rows)
	}
	return int64(words) * vertexIDBytes
}

// buildTables fills a hashTable and the oracle with the same rows:
// frags[i] is what build worker i produced, appended through the batch
// sink (batches of up to batch rows) when batch > 0 and row by row
// otherwise. The oracle takes the rows fragment by
// fragment — the build order seal promises to keep inside a key's run.
func buildTables(tb testing.TB, keySlots []int, width, batch int, frags [][][]graph.VertexID) (*hashTable, *oracleTable) {
	tb.Helper()
	ht := newHashTable(keySlots, width)
	oracle := newOracleTable(keySlots)
	// One worker per fragment list entry, all building at once as far as
	// the table can tell: the checkouts interleave.
	cur := make([]*tableFragment, len(frags))
	room := func(i, rows int) *tableFragment {
		if f := cur[i]; f == nil || len(f.rows)+rows*width > cap(f.rows) {
			cur[i] = ht.fragment(rows*width, nil)
		}
		return cur[i]
	}
	longest := 0
	for _, rows := range frags {
		longest = max(longest, len(rows))
	}
	step := max(batch, 1)
	for off := 0; off < longest; off += step {
		for i, rows := range frags {
			if off >= len(rows) {
				continue
			}
			chunk := rows[off:min(off+step, len(rows))]
			if batch <= 0 {
				f := room(i, 1)
				f.rows = append(f.rows, chunk[0]...)
				continue
			}
			b := newTupleBatch(width, len(chunk))
			for _, row := range chunk {
				for c, v := range row {
					b.cols[c] = append(b.cols[c], v)
				}
				b.n++
			}
			room(i, b.n).appendBatch(b)
		}
	}
	// Build order is fragment checkout order, rows in append order inside
	// a fragment.
	for _, f := range ht.frags[:ht.nfrags] {
		for r := 0; r < len(f.rows); r += width {
			oracle.insert(f.rows[r : r+width])
		}
	}
	if !ht.seal(nil) {
		tb.Fatal("seal refused without a budget")
	}
	return ht, oracle
}

// checkAgainstOracle requires every probe key's run to equal the
// oracle's rows in build order, and the table to hold as many rows as the
// oracle (so, when probes name every key built, nothing else).
func checkAgainstOracle(tb testing.TB, ht *hashTable, oracle *oracleTable, probes [][]graph.VertexID) {
	tb.Helper()
	w := ht.rowWidth
	for _, key := range probes {
		want := oracle.lookupKey(key)
		run := ht.lookupKey(key)
		if len(run) != len(want)*w {
			tb.Fatalf("key %v: run of %d rows, oracle %d", key, len(run)/w, len(want))
		}
		for i, row := range want {
			if !slices.Equal(run[i*w:(i+1)*w], row) {
				tb.Fatalf("key %v row %d = %v, oracle %v", key, i, run[i*w:(i+1)*w], row)
			}
		}
	}
	oracleRows := 0
	for _, rows := range oracle.packed {
		oracleRows += len(rows)
	}
	for _, rows := range oracle.wide {
		oracleRows += len(rows)
	}
	if ht.len() != oracleRows {
		tb.Fatalf("table holds %d rows, oracle %d", ht.len(), oracleRows)
	}
}

// sharedBuckets counts directory buckets holding more than one key.
func sharedBuckets(ht *hashTable) int {
	w := ht.rowWidth
	shared := 0
	for b := 0; b+1 < len(ht.offs); b++ {
		lo, hi := int(ht.offs[b]), int(ht.offs[b+1])
		for r := lo + 1; r < hi; r++ {
			if !ht.sameKey(ht.rows[lo*w:lo*w+w], ht.rows[r*w:r*w+w]) {
				shared++
				break
			}
		}
	}
	return shared
}

// TestHashTableMatchesOracle sweeps key widths 1–4 (the last two took the
// deleted byte-string fork), duplicate-heavy and near-unique key domains,
// one and several fragments, batch and row appends, and requires the
// regrouping of shared buckets to have been exercised.
func TestHashTableMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	regrouped := 0
	for _, keyWidth := range []int{1, 2, 3, 4} {
		for _, domain := range []int{3, 40, 100000} {
			for _, nfrag := range []int{1, 3} {
				for _, batch := range []int{0, 1, 7, 64} {
					width := keyWidth + 1 + rng.Intn(2)
					keySlots := rng.Perm(width)[:keyWidth]
					frags := make([][][]graph.VertexID, nfrag)
					var probes [][]graph.VertexID
					for i := range frags {
						for r := rng.Intn(400); r > 0; r-- {
							row := make([]graph.VertexID, width)
							for c := range row {
								row[c] = graph.VertexID(rng.Intn(domain))
							}
							frags[i] = append(frags[i], row)
							key := make([]graph.VertexID, keyWidth)
							for j, s := range keySlots {
								key[j] = row[s]
							}
							probes = append(probes, key)
						}
					}
					for i := 0; i < 50; i++ { // mostly absent keys
						key := make([]graph.VertexID, keyWidth)
						for j := range key {
							key[j] = graph.VertexID(rng.Intn(2 * domain))
						}
						probes = append(probes, key)
					}
					ht, oracle := buildTables(t, keySlots, width, batch, frags)
					checkAgainstOracle(t, ht, oracle, probes)
					regrouped += sharedBuckets(ht)
				}
			}
		}
	}
	if regrouped == 0 {
		t.Error("no bucket was shared by two keys; groupBucket went untested")
	}
}

// TestHashTableReuse pins the pooled table's contract: after reset a
// table of another size and content is exact, and storage is kept.
func TestHashTableReuse(t *testing.T) {
	ht := newHashTable([]int{1}, 2)
	for _, n := range []int{5000, 0, 7, 5000} {
		ht.reset()
		oracle := newOracleTable(ht.keySlots)
		var probes [][]graph.VertexID
		f := ht.fragment(2, nil)
		for i := 0; i < n; i++ {
			if len(f.rows)+2 > cap(f.rows) {
				f = ht.fragment(2, nil)
			}
			row := []graph.VertexID{graph.VertexID(i), graph.VertexID(i % 97)}
			f.rows = append(f.rows, row...)
			oracle.insert(row)
			probes = append(probes, row[1:])
		}
		rowsCap, offsCap, frags := cap(ht.rows), cap(ht.offs), len(ht.frags)
		if !ht.seal(nil) {
			t.Fatal("seal refused")
		}
		checkAgainstOracle(t, ht, oracle, append(probes, []graph.VertexID{1000}))
		if rowsCap > 0 && (cap(ht.rows) != rowsCap || cap(ht.offs) != offsCap || len(ht.frags) != frags) {
			t.Errorf("%d rows into a table that held 5000: rows %d → %d, directory %d → %d, fragments %d → %d; storage should be reused as it is",
				n, rowsCap, cap(ht.rows), offsCap, cap(ht.offs), frags, len(ht.frags))
		}
	}
}

// FuzzHashTable decodes bytes into a build — row width 2–6, key width
// 1–4, one to three fragments, batch or row appends, a value domain small
// enough for duplicate keys and shared buckets — and checks every present
// and a spread of absent keys against the map-of-slices oracle.
func FuzzHashTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{1, 1, 1, 3, 8, 1, 2, 3, 1, 2, 4, 1, 2, 3, 9, 9, 9})
	f.Add([]byte{4, 3, 2, 7, 3, 0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add([]byte{2, 2, 0, 0, 255, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var head [5]int
		for i := range head {
			if i < len(data) {
				head[i] = int(data[i])
			}
		}
		width := 2 + head[0]%5
		keyWidth := 1 + head[1]%min(4, width)
		nfrag := 1 + head[2]%3
		batch := head[3] % 9 // 0: row appends
		domain := 1 + head[4]%32
		keySlots := rand.New(rand.NewSource(int64(head[0]<<8 | head[1]))).Perm(width)[:keyWidth]
		frags := make([][][]graph.VertexID, nfrag)
		var probes [][]graph.VertexID
		body := data[min(len(data), 5):min(len(data), 1<<12)]
		for i := 0; i+width < len(body); i += width + 1 {
			row := make([]graph.VertexID, width)
			for c := range row {
				row[c] = graph.VertexID(int(body[i+1+c]) % domain)
			}
			frags[int(body[i])%nfrag] = append(frags[int(body[i])%nfrag], row)
		}
		for v := 0; v <= domain; v++ { // domain itself is never a value: absent
			key := make([]graph.VertexID, keyWidth)
			for j := range key {
				key[j] = graph.VertexID((v + j*head[4]) % (domain + 1))
			}
			probes = append(probes, key)
		}
		for _, rows := range frags {
			for _, row := range rows {
				key := make([]graph.VertexID, keyWidth)
				for j, s := range keySlots {
					key[j] = row[s]
				}
				probes = append(probes, key)
			}
		}
		ht, oracle := buildTables(t, keySlots, width, batch, frags)
		checkAgainstOracle(t, ht, oracle, probes)
	})
}
