package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPut(t *testing.T) {
	c := New[int](64)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d/%v, want 1/true", v, ok)
	}
	c.Put("a", 3) // refresh
	if v, _ := c.Get("a"); v != 3 {
		t.Fatalf("Get(a) after refresh = %d, want 3", v)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 2 hits / 1 miss", st)
	}
}

func TestSizeBound(t *testing.T) {
	const capacity = 32
	c := New[int](capacity)
	for i := 0; i < 10*capacity; i++ {
		c.Put(fmt.Sprintf("key-%d", i), i)
	}
	// Each shard is bounded to capacity/numShards entries, so the total
	// can never exceed capacity regardless of key distribution.
	if n := c.Len(); n > capacity {
		t.Fatalf("Len = %d exceeds capacity %d", n, capacity)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatal("expected evictions after overfilling")
	}
}

func TestLRUEviction(t *testing.T) {
	// One entry per shard: inserting two keys landing in the same shard
	// must evict the older, keeping the newer.
	c := New[int](1)
	// Find two keys in the same shard.
	shardOf := func(k string) *shard[int] { return c.shardFor(k) }
	base := "k0"
	var collide string
	for i := 1; ; i++ {
		k := fmt.Sprintf("k%d", i)
		if shardOf(k) == shardOf(base) {
			collide = k
			break
		}
	}
	c.Put(base, 1)
	c.Put(collide, 2)
	if _, ok := c.Get(base); ok {
		t.Fatalf("%q should have been evicted", base)
	}
	if v, ok := c.Get(collide); !ok || v != 2 {
		t.Fatalf("%q missing after eviction of older entry", collide)
	}
}

func TestLRURecency(t *testing.T) {
	// Capacity two per shard; touching the older key should make the
	// middle key the eviction victim.
	c := New[int](2 * numShards)
	var keys []string
	for i := 0; len(keys) < 3; i++ {
		k := fmt.Sprintf("r%d", i)
		if c.shardFor(k) == c.shardFor("r-base") {
			keys = append(keys, k)
		}
	}
	c.Put(keys[0], 0)
	c.Put(keys[1], 1)
	c.Get(keys[0]) // refresh 0; 1 becomes LRU
	c.Put(keys[2], 2)
	if _, ok := c.Get(keys[1]); ok {
		t.Fatalf("%q should have been evicted as LRU", keys[1])
	}
	if _, ok := c.Get(keys[0]); !ok {
		t.Fatalf("%q was refreshed and must survive", keys[0])
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[int](128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("key-%d", (g*31+i)%200)
				if v, ok := c.Get(k); ok && v < 0 {
					t.Error("corrupt value")
					return
				}
				c.Put(k, i)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 128 {
		t.Fatalf("Len = %d exceeds capacity", c.Len())
	}
}
