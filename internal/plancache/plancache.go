// Package plancache caches derived execution plans keyed by canonical
// scheme fingerprint. The paper's Theorems 1–2 make plans ideal cache
// entries: an expression/program is derived once per database scheme and is
// correct (and quasi-optimal) for every instance over that scheme, so a
// serving process that sees the same scheme repeatedly — the normal case
// for a query service — pays for optimizer search and Algorithm 1/2
// derivation exactly once.
//
// The cache is a bounded LRU with hit/miss/eviction counters, safe for
// concurrent use. GetOrCompute collapses concurrent misses on one key into
// a single derivation (plan search can be expensive; a thundering herd of
// identical queries must not each run it).
package plancache

import (
	"container/list"
	"sync"

	"repro/internal/engine"
)

// DefaultCapacity is the cache size used when New is given a non-positive
// capacity.
const DefaultCapacity = 128

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Hits counts Get/GetOrCompute calls answered from the cache, including
	// calls that joined an in-flight computation (see Coalesced).
	Hits int64 `json:"hits"`
	// Misses counts lookups that found nothing and (for GetOrCompute) ran
	// the compute function.
	Misses int64 `json:"misses"`
	// Evictions counts entries dropped to respect capacity.
	Evictions int64 `json:"evictions"`
	// Coalesced counts GetOrCompute calls that waited on another caller's
	// in-flight computation instead of running their own (a subset of Hits).
	Coalesced int64 `json:"coalesced"`
	// Invalidations counts entries dropped by InvalidatePrefix — plans
	// discarded because their database changed, not for capacity.
	Invalidations int64 `json:"invalidations"`
	// Len and Capacity describe current occupancy.
	Len      int `json:"len"`
	Capacity int `json:"capacity"`
}

// Cache is an LRU plan cache. The zero value is not usable; construct with
// New.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List               // front = most recently used
	items    map[string]*list.Element // key -> element whose Value is *entry
	inflight map[string]*flight

	hits, misses, evictions, coalesced, invalidations int64
}

type entry struct {
	key  string
	plan *engine.Plan
}

// flight is one in-progress computation other callers can wait on.
type flight struct {
	done chan struct{}
	plan *engine.Plan
	err  error
	// invalidated is set (under the cache lock) by InvalidatePrefix while
	// the computation is still in flight: the plan being derived reads the
	// pre-invalidation catalog, so caching it after the invalidation would
	// resurrect exactly the staleness the caller asked to drop. The result
	// is still handed to every waiter — it is correct for the scheme — but
	// it never enters the cache.
	invalidated bool
}

// New returns an empty cache holding at most capacity plans
// (DefaultCapacity when capacity <= 0).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*flight),
	}
}

// Get returns the cached plan for key, marking it most recently used.
func (c *Cache) Get(key string) (*engine.Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*entry).plan, true
	}
	c.misses++
	return nil, false
}

// GetOrCompute returns the plan for key, computing and caching it on a
// miss. Concurrent callers missing on the same key share one computation:
// the first runs compute, the rest block until it finishes and receive its
// result. The second return reports whether the caller was served without
// running compute itself (a cache hit or a coalesced wait). Compute errors
// are not cached; they propagate to every waiter of that flight.
func (c *Cache) GetOrCompute(key string, compute func() (*engine.Plan, error)) (*engine.Plan, bool, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		p := el.Value.(*entry).plan
		c.mu.Unlock()
		return p, true, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.hits++
		c.coalesced++
		c.mu.Unlock()
		<-f.done
		return f.plan, true, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.misses++
	c.mu.Unlock()

	f.plan, f.err = compute()

	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil && !f.invalidated {
		// The flight kept every other caller of key off the cache, so key
		// is not cached: insert it, evicting the least recently used.
		c.items[key] = c.ll.PushFront(&entry{key: key, plan: f.plan})
		for c.ll.Len() > c.capacity {
			oldest := c.ll.Back()
			c.ll.Remove(oldest)
			delete(c.items, oldest.Value.(*entry).key)
			c.evictions++
		}
	}
	c.mu.Unlock()
	close(f.done)
	return f.plan, false, f.err
}

// InvalidatePrefix drops every cached plan whose key starts with prefix and
// returns the number dropped. The service keys plans as
// "fingerprint#strategy", so invalidating the fingerprint prefix removes all
// strategies' plans for one database after an ingest mutates it — plans are
// instance-dependent (optimizer search reads cardinalities), so they cannot
// outlive the catalog version they were derived from. In-flight computations
// for matching keys are marked invalidated: they finish and serve their
// waiters (a plan derived from either catalog version is still correct for
// the scheme), but their results are not cached — without the mark, a
// compute that started before the ingest could complete after this call and
// re-install a pre-ingest plan that no later invalidation would ever drop.
func (c *Cache) InvalidatePrefix(prefix string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for key, el := range c.items {
		if len(key) >= len(prefix) && key[:len(prefix)] == prefix {
			c.ll.Remove(el)
			delete(c.items, key)
			n++
		}
	}
	for key, f := range c.inflight {
		if len(key) >= len(prefix) && key[:len(prefix)] == prefix {
			f.invalidated = true
		}
	}
	c.invalidations += int64(n)
	return n
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Coalesced:     c.coalesced,
		Invalidations: c.invalidations,
		Len:           c.ll.Len(),
		Capacity:      c.capacity,
	}
}
