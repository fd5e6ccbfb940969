package serve

import (
	"repro/internal/fleet"
)

// The solution cache is a striped LRU (fleet.ShardedLRU): per-shard locks
// with a power-of-two stripe count, so the sub-millisecond hits that
// dominate under Zipf traffic do not serialize on one mutex. Keys are the
// scale-canonical SHA-256 instance hashes (canon.go), so shard selection is
// uniform by construction.
//
// The cache is bounded (exactly — capacity is split across shards without
// rounding up), stores only proven-optimal canonical solutions, and a hit
// refreshes recency. Eviction is LRU per shard rather than globally; with
// uniform keys this is the textbook approximation, and CacheShards=1
// recovers the exact global-LRU order (pinned by TestCacheEviction).
type solutionCache = fleet.ShardedLRU[*canonSolution]

// newSolutionCache builds the striped cache; shards <= 0 selects the
// automatic stripe count (see fleet.DefaultShards).
func newSolutionCache(capacity, shards int) *solutionCache {
	return fleet.NewShardedLRU[*canonSolution](capacity, shards)
}
