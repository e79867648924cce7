// Package cache provides a sharded, size-bounded, LRU-evicting map used
// by the DB to memoise compiled query plans keyed by canonical pattern.
// All operations are safe for concurrent use; sharding keeps lock
// contention low when many goroutines plan queries at once.
package cache

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// numShards is the fixed shard count; a power of two so the hash can be
// masked. 16 shards keep contention negligible up to hundreds of
// concurrent queriers while costing a few hundred bytes when idle.
const numShards = 16

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	// Hits and Misses count Get outcomes.
	Hits, Misses int64
	// Evictions counts entries dropped to respect the size bound.
	Evictions int64
	// Entries is the current number of cached values.
	Entries int
}

// Cache is a sharded string-keyed LRU cache holding values of type V.
type Cache[V any] struct {
	shards   [numShards]shard[V]
	perShard int
	seed     maphash.Seed

	hits, misses, evictions atomic.Int64
}

type shard[V any] struct {
	mu      sync.Mutex
	entries map[string]*list.Element // value: *entry[V]
	order   *list.List               // front = most recently used
}

type entry[V any] struct {
	key string
	val V
}

// New returns a cache bounded to at most capacity entries (rounded up to
// a multiple of the shard count; minimum one entry per shard).
func New[V any](capacity int) *Cache[V] {
	per := (capacity + numShards - 1) / numShards
	if per < 1 {
		per = 1
	}
	c := &Cache[V]{perShard: per, seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*list.Element)
		c.shards[i].order = list.New()
	}
	return c
}

func (c *Cache[V]) shardFor(key string) *shard[V] {
	return &c.shards[maphash.String(c.seed, key)&(numShards-1)]
}

// Get returns the cached value for key and marks it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	el, ok := s.entries[key]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		var zero V
		return zero, false
	}
	s.order.MoveToFront(el)
	v := el.Value.(*entry[V]).val
	s.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// Put stores val under key, evicting the shard's least recently used
// entry if the shard is full. Storing an existing key refreshes its value
// and recency.
func (c *Cache[V]) Put(key string, val V) {
	s := c.shardFor(key)
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		el.Value.(*entry[V]).val = val
		s.order.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	if s.order.Len() >= c.perShard {
		oldest := s.order.Back()
		if oldest != nil {
			s.order.Remove(oldest)
			delete(s.entries, oldest.Value.(*entry[V]).key)
			c.evictions.Add(1)
		}
	}
	s.entries[key] = s.order.PushFront(&entry[V]{key: key, val: val})
	s.mu.Unlock()
}

// Clear drops every entry, returning how many were removed (counted as
// evictions). The DB calls it when it publishes a new statistics
// generation: keys carry the generation they were planned under, so
// entries of older generations can never be looked up again.
func (c *Cache[V]) Clear() int {
	removed := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		removed += s.order.Len()
		s.entries = make(map[string]*list.Element)
		s.order.Init()
		s.mu.Unlock()
	}
	c.evictions.Add(int64(removed))
	return removed
}

// Len returns the current number of cached entries.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the cache counters.
func (c *Cache[V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
	}
}
