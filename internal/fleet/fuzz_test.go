package fleet

import "testing"

// FuzzShardedCacheKey feeds arbitrary keys through the striped cache: the
// shard choice must be stable, a put must be readable back regardless of
// key shape (embedded NULs, long runs, shared suffixes), the capacity bound
// must hold, and Range must visit live keys exactly once.
func FuzzShardedCacheKey(f *testing.F) {
	f.Add([]byte("plain-key"), uint8(4))
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 2}, uint8(16))
	f.Add([]byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaab"), uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, shards uint8) {
		c := NewShardedLRU[int](32, int(shards)%64)
		if n := c.ShardCount(); n < 1 || n&(n-1) != 0 {
			t.Fatalf("shard count %d not a positive power of two", n)
		}
		// Derive a family of related keys from the raw bytes: the fuzzer
		// loves shared prefixes/suffixes, exactly where weak shard hashes
		// correlate.
		base := string(raw)
		keys := []string{base, base + "0", base + "1", "0" + base, base + base}
		for i, k := range keys {
			if a, b := c.ShardFor(k), c.ShardFor(k); a != b {
				t.Fatalf("unstable shard for %q: %d vs %d", k, a, b)
			}
			c.Put(k, i)
		}
		// Re-put under the same keys (later index wins for duplicates). A
		// key may legitimately be gone — distinct keys hashing to one
		// cap-1 shard evict each other — but a hit must return the right
		// value, and the very last put is its shard's MRU and must survive.
		want := map[string]int{}
		for i, k := range keys {
			want[k] = i
			c.Put(k, i)
		}
		for k, v := range want {
			if got, ok := c.Get(k); ok && got != v {
				t.Fatalf("key %q: got %d, want %d", k, got, v)
			}
		}
		last := keys[len(keys)-1]
		if got, ok := c.Get(last); !ok || got != want[last] {
			t.Fatalf("last-put key %q: got (%d, %v), want %d", last, got, ok, want[last])
		}
		if c.Len() > 32 {
			t.Fatalf("capacity bound broken: %d", c.Len())
		}
		seen := map[string]bool{}
		c.Range(func(k string, v int) bool {
			if seen[k] {
				t.Fatalf("key %q visited twice", k)
			}
			seen[k] = true
			if w, ok := want[k]; ok && v != w {
				t.Fatalf("key %q: range saw %d, want %d", k, v, w)
			}
			return true
		})
		if len(seen) != c.Len() {
			t.Fatalf("range visited %d keys, len says %d", len(seen), c.Len())
		}
	})
}
