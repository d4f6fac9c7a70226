package plancache

import (
	"container/list"
	"hash/fnv"
	"sync"
	"time"

	"reco/internal/algo"
	"reco/internal/obs"
)

// Config sizes a Cache. The zero value means defaults.
type Config struct {
	// MaxEntries bounds the total number of cached plans across all shards
	// (rounded up to a multiple of the shard count). Default 4096.
	MaxEntries int
	// MaxBytes bounds the approximate total footprint of cached results.
	// Default 256 MiB. Both bounds are enforced; eviction is per-shard LRU.
	MaxBytes int64
}

// shards is the shard count, a power of two so shard selection is a mask.
// More shards mean less lock contention under concurrent load.
const shards = 16

func (c Config) withDefaults() Config {
	if c.MaxEntries <= 0 {
		c.MaxEntries = 4096
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 256 << 20
	}
	return c
}

// Cache is a sharded, bounded LRU over scheduling results. It is safe for
// concurrent use: each shard has its own mutex, and keys are distributed by
// FNV-1a hash. Cached *algo.Result values are shared between callers and
// must be treated as immutable.
//
// When an obs sink is attached, the cache maintains:
//
//	plancache_hits_total / plancache_misses_total / plancache_evictions_total
//	plancache_entries / plancache_bytes            (gauges)
//	plancache_lookup_seconds                       (log-bucket histogram)
type Cache struct {
	shards          []shard
	mask            uint32
	maxShardEntries int
	maxShardBytes   int64
	lookupBounds    []float64
}

type shard struct {
	mu    sync.Mutex
	ll    *list.List
	items map[string]*list.Element
	bytes int64
}

type entry struct {
	key  string
	res  *algo.Result
	size int64
}

// New returns a Cache sized by cfg (zero value: defaults).
func New(cfg Config) *Cache {
	cfg = cfg.withDefaults()
	c := &Cache{
		shards:          make([]shard, shards),
		mask:            shards - 1,
		maxShardEntries: (cfg.MaxEntries + shards - 1) / shards,
		maxShardBytes:   (cfg.MaxBytes + shards - 1) / shards,
		lookupBounds:    obs.LogBuckets(1e-7, 2, 22), // 100ns .. ~0.2s
	}
	if c.maxShardEntries < 1 {
		c.maxShardEntries = 1
	}
	for i := range c.shards {
		c.shards[i].ll = list.New()
		c.shards[i].items = make(map[string]*list.Element)
	}
	return c
}

func (c *Cache) shardFor(key string) *shard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return &c.shards[h.Sum32()&c.mask]
}

// Get returns the cached result for key and whether it was present, marking
// the entry most-recently-used. Nil-safe: a nil cache always misses.
func (c *Cache) Get(key string) (*algo.Result, bool) {
	if c == nil {
		return nil, false
	}
	snk := obs.Current()
	start := time.Time{}
	if snk != nil {
		start = time.Now()
	}
	s := c.shardFor(key)
	s.mu.Lock()
	el, ok := s.items[key]
	var res *algo.Result
	if ok {
		s.ll.MoveToFront(el)
		res = el.Value.(*entry).res
	}
	s.mu.Unlock()
	if snk != nil {
		snk.ObserveBuckets("plancache_lookup_seconds", c.lookupBounds, time.Since(start).Seconds())
		if ok {
			snk.Inc("plancache_hits_total")
		} else {
			snk.Inc("plancache_misses_total")
		}
	}
	return res, ok
}

// Put stores res under key, evicting least-recently-used entries from the
// key's shard until both the entry and byte bounds hold. Storing an
// existing key refreshes its value and recency. Nil-safe no-op on a nil
// cache or nil result.
func (c *Cache) Put(key string, res *algo.Result) {
	if c == nil || res == nil {
		return
	}
	size := resultSize(res)
	snk := obs.Current()
	s := c.shardFor(key)
	var evicted int64
	var deltaEntries, deltaBytes int64
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		e := el.Value.(*entry)
		s.bytes += size - e.size
		deltaBytes += size - e.size
		e.res, e.size = res, size
		s.ll.MoveToFront(el)
	} else {
		s.items[key] = s.ll.PushFront(&entry{key: key, res: res, size: size})
		s.bytes += size
		deltaEntries++
		deltaBytes += size
	}
	for s.ll.Len() > c.maxShardEntries || (s.bytes > c.maxShardBytes && s.ll.Len() > 1) {
		back := s.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry)
		s.ll.Remove(back)
		delete(s.items, e.key)
		s.bytes -= e.size
		deltaEntries--
		deltaBytes -= e.size
		evicted++
	}
	s.mu.Unlock()
	if snk != nil {
		snk.Count("plancache_evictions_total", evicted)
		snk.GaugeAdd("plancache_entries", float64(deltaEntries))
		snk.GaugeAdd("plancache_bytes", float64(deltaBytes))
	}
}

// Len returns the number of cached entries across all shards.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += s.ll.Len()
		s.mu.Unlock()
	}
	return total
}

// Bytes returns the approximate total footprint of cached results.
func (c *Cache) Bytes() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += s.bytes
		s.mu.Unlock()
	}
	return total
}
