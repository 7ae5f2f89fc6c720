package vnnserver

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// defaultCacheEntries is the capacity of every cache when the config
// leaves it zero. Compiled networks are a few MB for the paper's
// predictors; 64 of them fit comfortably while covering many retrain
// iterations of several networks × regions × option sets.
const defaultCacheEntries = 64

// lru is the service's one cache: a capacity-bounded map evicting the
// least recently used entry, with singleflight loading. The compile
// Cache, the monitor cache and the by-fingerprint workload memory are
// typed uses of it.
//
// An entry is in flight from the miss that inserted it until its load
// returns. Every caller asking for the key meanwhile waits on that one
// load. In-flight entries are never evicted, so a capacity-1 cache still
// deduplicates a burst of identical requests, and a failed load is
// dropped rather than cached, so the next request retries.
type lru[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[K]*lruEntry[K, V]
	// root is the sentinel of the recency ring: root.next is the most
	// recently used entry, root.prev the least.
	root lruEntry[K, V]
	// size accounts a resident value's bytes; nil accounts none.
	size func(V) int64
	// onReady and onEvict, when set, run under mu as a value becomes
	// resident (its load succeeded, or it was imported) and as it is
	// evicted: the hooks a secondary index needs to stay exact.
	onReady, onEvict func(K, V)

	hits, misses, evictions, bytes atomic.Int64
}

// lruEntry is one cached (or in-flight) value.
type lruEntry[K comparable, V any] struct {
	key        K
	prev, next *lruEntry[K, V]
	ready      chan struct{} // closed once val/err are set
	val        V
	err        error
	bytes      int64
	added      time.Time // insertion time: the GET /v1/workloads age
}

func newLRU[K comparable, V any](capacity int, size func(V) int64) *lru[K, V] {
	if capacity <= 0 {
		capacity = defaultCacheEntries
	}
	c := &lru[K, V]{capacity: capacity, entries: make(map[K]*lruEntry[K, V]), size: size}
	c.root.next, c.root.prev = &c.root, &c.root
	return c
}

func (e *lruEntry[K, V]) done() bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

// getOrLoad returns the value cached under key, running load on a miss.
// The bool reports a hit, which includes every waiter that joined an
// in-flight load. ctx bounds only this caller's wait: the load itself
// runs to completion for everyone else under whatever context load uses.
func (c *lru[K, V]) getOrLoad(ctx context.Context, key K, load func() (V, error)) (V, bool, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.touchLocked(e)
		c.hits.Add(1)
		c.mu.Unlock()
		select {
		case <-e.ready:
			return e.val, true, e.err
		case <-ctx.Done():
			var zero V
			return zero, true, ctx.Err()
		}
	}
	e := &lruEntry[K, V]{key: key, ready: make(chan struct{}), added: time.Now()}
	c.insertLocked(e)
	c.misses.Add(1)
	c.mu.Unlock()

	val, err := load()
	var bytes int64
	if err == nil && c.size != nil {
		bytes = c.size(val)
	}
	c.mu.Lock()
	// In-flight entries are never evicted, so e is still cached here.
	e.val, e.err, e.bytes = val, err, bytes
	close(e.ready)
	if err != nil {
		c.unlinkLocked(e)
	} else {
		c.readyLocked(e)
	}
	c.mu.Unlock()
	return val, false, err
}

// get returns the resident value under key, touching it. In-flight and
// absent keys are misses.
func (c *lru[K, V]) get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.getLocked(key)
}

func (c *lru[K, V]) getLocked(key K) (V, bool) {
	e, ok := c.entries[key]
	if !ok || !e.done() {
		c.misses.Add(1)
		var zero V
		return zero, false
	}
	c.touchLocked(e)
	c.hits.Add(1)
	return e.val, true
}

// Peek returns the completed entry cached under key without touching
// LRU order or hit/miss counters — a read-only export lookup, not a
// serving access.
func (c *lru[K, V]) Peek(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && e.done() {
		return e.val, true
	}
	var zero V
	return zero, false
}

// Import inserts an externally obtained value under key without counting
// a miss (nothing was loaded here). If key is already cached or in
// flight the existing entry wins and Import reports false.
func (c *lru[K, V]) Import(key K, v V) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.importLocked(key, v)
}

func (c *lru[K, V]) importLocked(key K, v V) bool {
	if _, ok := c.entries[key]; ok {
		return false
	}
	e := &lruEntry[K, V]{key: key, ready: make(chan struct{}), val: v, added: time.Now()}
	close(e.ready)
	if c.size != nil {
		e.bytes = c.size(v)
	}
	c.insertLocked(e)
	return true
}

// Contains reports whether key is cached (or in flight), without
// touching LRU order.
func (c *lru[K, V]) Contains(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// Len returns the number of cached (including in-flight) entries.
func (c *lru[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Keys snapshots the keys of every resident entry, most recent first
// (in-flight loads are excluded: they have no value to export yet).
func (c *lru[K, V]) Keys() []K {
	items := c.snapshot()
	out := make([]K, len(items))
	for i, it := range items {
		out[i] = it.key
	}
	return out
}

// lruItem is one resident entry's index row.
type lruItem[K comparable] struct {
	key   K
	bytes int64
	added time.Time
}

// snapshot lists every resident entry, most recent first, without
// touching LRU order or counters.
func (c *lru[K, V]) snapshot() []lruItem[K] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]lruItem[K], 0, len(c.entries))
	for e := c.root.next; e != &c.root; e = e.next {
		if e.done() { // failed loads never stay cached
			out = append(out, lruItem[K]{key: e.key, bytes: e.bytes, added: e.added})
		}
	}
	return out
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
	// Bytes is the accounted resident size of completed entries
	// (vnn.CompiledNetwork.SizeBytes summed over the compile cache).
	Bytes int64 `json:"bytes"`
}

// Stats snapshots the cache counters.
func (c *lru[K, V]) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Size:      c.Len(),
		Capacity:  c.capacity,
		Bytes:     c.bytes.Load(),
	}
}

// insertLocked links a new entry as most recent (accounting it first if
// it arrives resident) and evicts down to capacity.
func (c *lru[K, V]) insertLocked(e *lruEntry[K, V]) {
	c.entries[e.key] = e
	c.linkFrontLocked(e)
	if e.done() {
		c.readyLocked(e)
	}
	for old := c.root.prev; old != &c.root && len(c.entries) > c.capacity; {
		prev := old.prev
		if old.done() { // never an in-flight load
			c.unlinkLocked(old)
			c.evictions.Add(1)
			c.bytes.Add(-old.bytes)
			if c.onEvict != nil {
				c.onEvict(old.key, old.val)
			}
		}
		old = prev
	}
}

// readyLocked accounts a value that just became resident.
func (c *lru[K, V]) readyLocked(e *lruEntry[K, V]) {
	c.bytes.Add(e.bytes)
	if c.onReady != nil {
		c.onReady(e.key, e.val)
	}
}

func (c *lru[K, V]) touchLocked(e *lruEntry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	c.linkFrontLocked(e)
}

func (c *lru[K, V]) linkFrontLocked(e *lruEntry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	c.root.next.prev = e
	c.root.next = e
}

func (c *lru[K, V]) unlinkLocked(e *lruEntry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	delete(c.entries, e.key)
}
