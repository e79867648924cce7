package catalogue

import (
	"slices"
	"testing"
)

// tableOracle is the per-entry form the flat table replaced: one heap
// object per key in a map.
type tableOracle map[string]*Entry

// collide appends to k the first two bytes that make its hash's top
// byte 0xA5: keys treated alike share a home slot in every index of up
// to 256 slots, so the table stays one probe run until it holds 128
// entries.
func collide(k []byte) []byte {
	k = append(k, 0, 0)
	for n := 0; hashKey(k)>>56 != 0xA5; n++ {
		k[len(k)-2], k[len(k)-1] = byte(n>>8), byte(n)
	}
	return k
}

// FuzzEntryTable decodes bytes into keys — prefixes of one another from a
// three-letter alphabet, or, when the first byte is odd, keys forced to
// share a home slot — accumulates list sums, µ and samples into the flat
// table and into a map-of-entries oracle with the same float operations,
// averages both, and checks Lookup on every key and on absent ones, All
// against the oracle in any order, and the index's invariants.
func FuzzEntryTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 1, 2, 3, 3, 1, 2, 3})
	f.Add([]byte{1, 0, 9, 1, 1, 9, 2, 2, 9, 3, 3, 9, 4, 4, 9, 5, 5, 9, 6, 6, 9, 7, 7, 9, 8, 8, 9})
	f.Add([]byte{0, 12, 200, 100, 11, 1, 2, 10, 3, 4, 9, 5, 6, 1, 7, 8, 0, 9, 9, 12, 250, 251})
	f.Fuzz(func(t *testing.T, data []byte) {
		forced := len(data) > 0 && data[0]%2 == 1
		var base []byte // every key is a prefix of base, extended
		for i := 0; i < len(data); i++ {
			base = append(base, "abc"[data[i]%3])
		}
		c := &Catalogue{}
		oracle := tableOracle{}
		for i := 1; i+2 < len(data) && i < 3*200; i += 3 {
			k := append([]byte(nil), base[:int(data[i])%(len(base)+1)]...)
			if forced {
				k = collide(k)
			}
			nlists := len(k) % 4 // fixed by the key, as a descriptor count is
			e := c.entries.add(k, nlists)
			o := oracle[string(k)]
			if o == nil {
				o = &Entry{ListSizes: make([]float64, nlists)}
				oracle[string(k)] = o
			}
			lists := c.entries.listsOf(e)
			for j := range lists {
				x := float64(data[i+1]) / float64(j+3)
				lists[j] += x
				o.ListSizes[j] += x
			}
			c.entries.mu[e] += float64(data[i+2]) / 7
			o.Mu += float64(data[i+2]) / 7
			c.entries.samples[e] += uint32(data[i+1] % 5)
			o.Samples += int(data[i+1] % 5)
		}
		c.entries.average()
		c.entries.trim()
		for _, o := range oracle {
			if o.Samples > 0 {
				for j := range o.ListSizes {
					o.ListSizes[j] /= float64(o.Samples)
				}
				o.Mu /= float64(o.Samples)
			}
		}

		same := func(a, b Entry) bool {
			return slices.Equal(a.ListSizes, b.ListSizes) && a.Mu == b.Mu && a.Samples == b.Samples
		}
		if c.Len() != len(oracle) {
			t.Fatalf("Len = %d, oracle holds %d keys", c.Len(), len(oracle))
		}
		for k, o := range oracle {
			got, ok := c.Lookup(Key(k))
			if !ok || !same(got, *o) {
				t.Fatalf("Lookup(%q) = %+v, %v; want %+v", k, got, ok, *o)
			}
			for _, absent := range []string{k + "a", k + "\x00", k[:len(k)/2]} {
				if _, in := oracle[absent]; !in {
					if got, ok := c.Lookup(Key(absent)); ok {
						t.Fatalf("Lookup(%q) = %+v for an absent key", absent, got)
					}
				}
			}
		}
		seen := map[Key]bool{}
		for k, e := range c.All() {
			o := oracle[string(k)]
			if o == nil || seen[k] || !same(e, *o) {
				t.Fatalf("All yields %q = %+v (seen before: %v), oracle has %+v", k, e, seen[k], o)
			}
			seen[k] = true
		}
		if len(seen) != len(oracle) {
			t.Fatalf("All yields %d entries, want %d", len(seen), len(oracle))
		}

		idx := c.entries.index
		if n := c.Len(); n > 0 && (len(idx)&(len(idx)-1) != 0 || 2*n > len(idx)) {
			t.Fatalf("index of %d slots for %d entries: want a power of two at most half full", len(idx), n)
		}
		used := 0
		for _, s := range idx {
			if s != 0 {
				used++
			}
		}
		if used != c.Len() {
			t.Fatalf("index holds %d entries, table %d", used, c.Len())
		}
	})
}
