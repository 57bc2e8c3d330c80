package service

import (
	"container/list"
	"hash/fnv"
	"sync"
)

// cacheShards is the fixed shard count of the verdict cache. Sixteen
// shards took the single-mutex LRU — every worker completion and every
// submission fast-path contended one lock under 8 concurrent clients —
// down to effectively uncontended: keys spread by FNV hash, so two
// concurrent requests serialize only when they touch the same sixteenth
// of the keyspace.
const cacheShards = 16

// verdictCache is a sharded fixed-capacity LRU over canonical verdict
// JSON, keyed by the request's (specimen, profile, seed) canonical key.
// Because runs are deterministic (the differential harness proves pooled
// and fresh machines produce bit-identical results), a cached verdict is
// exact, not approximate — eviction is purely a memory bound, enforced
// per shard.
type verdictCache struct {
	shards [cacheShards]cacheShard
}

// cacheShard is one independently locked LRU. Capacity, order, and the
// counters are all guarded by mu.
type cacheShard struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[string]*list.Element

	hits, misses, evictions uint64
}

type cacheEntry struct {
	key     string
	verdict []byte
}

func newVerdictCache(capacity int) *verdictCache {
	perShard := (capacity + cacheShards - 1) / cacheShards
	if capacity <= 0 {
		perShard = 0
	}
	c := &verdictCache{}
	for i := range c.shards {
		c.shards[i].init(perShard)
	}
	return c
}

// init sizes an unshared shard during construction.
func (s *cacheShard) init(perShard int) {
	s.cap = perShard
	s.order = list.New()
	s.items = make(map[string]*list.Element, perShard)
}

// shardFor hashes the key onto its shard.
func (c *verdictCache) shardFor(key string) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()%cacheShards]
}

// Get returns the cached verdict bytes for key, promoting the entry. The
// returned slice is shared — callers must not mutate it.
func (c *verdictCache) Get(key string) ([]byte, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		s.misses++
		return nil, false
	}
	s.hits++
	s.order.MoveToFront(el)
	return el.Value.(*cacheEntry).verdict, true
}

// Put inserts or refreshes a verdict, evicting the least recently used
// entry of the key's shard when over capacity.
func (c *verdictCache) Put(key string, verdict []byte) {
	s := c.shardFor(key)
	if s.cap <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		el.Value.(*cacheEntry).verdict = verdict
		s.order.MoveToFront(el)
		return
	}
	s.items[key] = s.order.PushFront(&cacheEntry{key: key, verdict: verdict})
	for s.order.Len() > s.cap {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.items, oldest.Value.(*cacheEntry).key)
		s.evictions++
	}
}

// ShardStats is one shard's counters, exported per shard in /metrics so
// a skewed key distribution (one hot shard soaking all the traffic) is
// visible from outside.
type ShardStats struct {
	Hits, Misses, Evictions uint64
	Size                    int
}

// PerShard snapshots every shard's counters in shard order.
func (c *verdictCache) PerShard() [cacheShards]ShardStats {
	var out [cacheShards]ShardStats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out[i] = ShardStats{Hits: s.hits, Misses: s.misses, Evictions: s.evictions, Size: s.order.Len()}
		s.mu.Unlock()
	}
	return out
}

// Stats returns the aggregate hit/miss/eviction counters and total size.
func (c *verdictCache) Stats() (hits, misses, evictions uint64, size int) {
	for _, s := range c.PerShard() {
		hits += s.Hits
		misses += s.Misses
		evictions += s.Evictions
		size += s.Size
	}
	return hits, misses, evictions, size
}

// HitRate returns hits/(hits+misses), 0 before any lookup.
func (c *verdictCache) HitRate() float64 {
	hits, misses, _, _ := c.Stats()
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
