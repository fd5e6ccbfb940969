package serve

import (
	"container/list"
	"sync"
)

// solutionCache is the per-budget solution cache: a size-bounded map from
// canonical instance hash (canon.go) to proven-optimal canonical solution,
// evicting in exact least-recently-used order (pinned by
// TestCacheEviction). One mutex guards it; a hit costs a map lookup and a
// list splice under that lock.
type solutionCache struct {
	mu    sync.Mutex
	cap   int
	m     map[string]*list.Element
	order *list.List // front = most recently used
}

type cacheEntry struct {
	key string
	sol *canonSolution
}

// newSolutionCache builds a cache holding at most capacity entries;
// capacity must be positive.
func newSolutionCache(capacity int) *solutionCache {
	return &solutionCache{cap: capacity, m: make(map[string]*list.Element), order: list.New()}
}

// Get returns the solution cached under key and marks it most recently
// used.
func (c *solutionCache) Get(key string) (*canonSolution, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).sol, true
}

// Put inserts (or refreshes) key, evicting the least recently used entry
// when the cache is full.
func (c *solutionCache) Put(key string, sol *canonSolution) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		el.Value.(*cacheEntry).sol = sol
		c.order.MoveToFront(el)
		return
	}
	c.m[key] = c.order.PushFront(&cacheEntry{key: key, sol: sol})
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry).key)
	}
}

// Len reports the current entry count.
func (c *solutionCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// entries copies out every cached entry, most recently used first.
func (c *solutionCache) entries() []cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]cacheEntry, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, *el.Value.(*cacheEntry))
	}
	return out
}
