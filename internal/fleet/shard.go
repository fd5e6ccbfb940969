// Package fleet holds the striped LRU cache behind the serve layer's
// solution cache: a size-bounded map split across independently locked
// shards, so concurrent request handlers rarely contend on one mutex.
//
// The cache is dependency-free and value-agnostic: the serve layer owns
// what is cached (canonical solutions) and what the keys are (canonical
// instance hashes); fleet owns only the placement mechanics.
package fleet

import (
	"container/list"
	"runtime"
	"sync"
)

// ShardedLRU is a size-bounded map from string key to V, striped across a
// power-of-two number of independently locked LRU shards. Each shard is the
// textbook mutex+list LRU; the stripe count is chosen so that concurrent
// request handlers rarely contend on the same lock.
//
// Capacity is split exactly across shards (shard i gets cap/shards plus one
// of the cap%shards remainder slots), so the total entry count never
// exceeds the configured capacity. Eviction is LRU *per shard*, which
// approximates global LRU for the uniformly hashed keys the serve layer
// uses (hex SHA-256 instance hashes); a worst-case adversarial key set can
// evict earlier than global LRU would, never later than its shard's own
// recency order.
type ShardedLRU[V any] struct {
	shards []lruShard[V]
	mask   uint64
	cap    int
}

type lruShard[V any] struct {
	mu    sync.Mutex
	cap   int
	m     map[string]*list.Element
	order *list.List // front = most recently used
	_     [24]byte   // pad toward a cache line to curb false sharing of the locks
}

type lruEntry[V any] struct {
	key string
	val V
}

// DefaultShards picks the stripe count for a given capacity: the smallest
// power of two at or above 4×GOMAXPROCS, clamped to [1, 256] and to the
// capacity itself (a shard with zero slots could never hold anything).
func DefaultShards(capacity int) int {
	want := 4 * runtime.GOMAXPROCS(0)
	if want > 256 {
		want = 256
	}
	n := 1
	for n < want {
		n <<= 1
	}
	for n > 1 && n > capacity {
		n >>= 1
	}
	return n
}

// NewShardedLRU builds a cache holding at most capacity entries across the
// given number of shards. shards is rounded up to a power of two; shards <= 0
// selects DefaultShards(capacity). capacity must be positive.
func NewShardedLRU[V any](capacity, shards int) *ShardedLRU[V] {
	if capacity <= 0 {
		panic("fleet: ShardedLRU capacity must be positive")
	}
	if shards <= 0 {
		shards = DefaultShards(capacity)
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	for n > 1 && n > capacity {
		// More shards than slots would leave empty shards that silently drop
		// every put; shrink until each shard owns at least one slot.
		n >>= 1
	}
	c := &ShardedLRU[V]{shards: make([]lruShard[V], n), mask: uint64(n - 1), cap: capacity}
	base, extra := capacity/n, capacity%n
	for i := range c.shards {
		sc := base
		if i < extra {
			sc++
		}
		c.shards[i] = lruShard[V]{cap: sc, m: make(map[string]*list.Element), order: list.New()}
	}
	return c
}

// hashKey is FNV-1a 64 with a splitmix64 finalizer. The finalizer matters:
// the low bits select the shard, and plain FNV's low bits correlate for
// short keys with shared suffixes (the fuzz target feeds exactly those).
func hashKey(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// ShardFor reports which shard holds key (stable for the cache's lifetime;
// exported for tests and the shard-distribution fuzz target).
func (c *ShardedLRU[V]) ShardFor(key string) int {
	return int(hashKey(key) & c.mask)
}

// Get returns the value cached under key and marks it most recently used in
// its shard.
func (c *ShardedLRU[V]) Get(key string) (V, bool) {
	s := &c.shards[hashKey(key)&c.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	s.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// Put inserts (or refreshes) key, evicting the least recently used entry of
// its shard when that shard is full.
func (c *ShardedLRU[V]) Put(key string, val V) {
	s := &c.shards[hashKey(key)&c.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cap == 0 {
		return
	}
	if el, ok := s.m[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		s.order.MoveToFront(el)
		return
	}
	s.m[key] = s.order.PushFront(&lruEntry[V]{key: key, val: val})
	for s.order.Len() > s.cap {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.m, oldest.Value.(*lruEntry[V]).key)
	}
}

// Len reports the current entry count across all shards.
func (c *ShardedLRU[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Capacity reports the configured total capacity.
func (c *ShardedLRU[V]) Capacity() int { return c.cap }

// ShardCount reports the stripe count (a power of two).
func (c *ShardedLRU[V]) ShardCount() int { return len(c.shards) }

// Range calls f for every entry, shard by shard, most- to least-recently
// used within each shard, until f returns false. Only one shard's lock is
// held at a time, so Range never blocks the whole cache: it is a consistent
// snapshot per shard, not across shards — exactly what the disk snapshot
// writer needs (concurrent puts may or may not appear; nothing is visited
// twice within a shard). f runs under the visited shard's lock and must not
// call back into the cache.
func (c *ShardedLRU[V]) Range(f func(key string, val V) bool) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.order.Front(); el != nil; el = el.Next() {
			e := el.Value.(*lruEntry[V])
			if !f(e.key, e.val) {
				s.mu.Unlock()
				return
			}
		}
		s.mu.Unlock()
	}
}
