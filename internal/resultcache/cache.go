package resultcache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Cache is a single-flight LRU memo from K to V, safe for concurrent
// use. Concurrent Gets of one key run one build and share its value; a
// failed build is abandoned, caching nothing, so a waiting or later Get
// builds again.
//
// Settled values are charged their cost against the budget and the
// least-recently-used go first when it is exceeded. Entries still
// building are never evicted, and neither is the value that just
// settled, so an entry whose cost alone exceeds the budget still reaches
// its followers and stays until the next value settles.
//
// Values must be pure functions of their keys: eviction only costs a
// rebuild.
type Cache[K comparable, V any] struct {
	budget int64
	cost   func(V) int64

	mu      sync.Mutex
	entries map[K]*slot[K, V]
	lru     list.List // of *slot[K, V], settled only, most recent first
	used    int64     // cost of the settled entries

	hits, misses, joins, evictions atomic.Uint64
}

// slot is one key's entry: in flight until done is closed, then settled
// (val valid) or abandoned (removed from the map before done closes, so
// waiters claim the key afresh).
type slot[K comparable, V any] struct {
	key     K
	done    chan struct{}
	val     V
	cost    int64
	settled bool          // written under Cache.mu before done closes
	elem    *list.Element // recency position, set when settled
}

// NewCache returns an empty cache whose settled entries cost at most
// budget in total, apart from a newest entry that alone exceeds it. cost
// prices one value; nil charges 1 per entry, which makes budget an entry
// count.
func NewCache[K comparable, V any](budget int64, cost func(V) int64) *Cache[K, V] {
	return &Cache[K, V]{budget: budget, cost: cost, entries: map[K]*slot[K, V]{}}
}

// Get returns key's value, running build on a miss. Concurrent Gets of
// the same key wait for the one build in flight.
func (c *Cache[K, V]) Get(key K, build func() (V, error)) (V, error) {
	s, lead := c.claim(key)
	if !lead {
		return s.val, nil
	}
	c.misses.Add(1)
	v, err := build()
	if err != nil {
		c.abandon(s)
		return v, err
	}
	c.settle(s, v)
	return v, nil
}

// Stats snapshots the cache's counters, the cost it holds and the
// entries still in flight. A Get that waited on a build in flight counts
// a join and, once served its value, a hit. Loads and Saves are always
// zero here; they count a Store's persistent tier.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	used := c.used
	inFlight := len(c.entries) - c.lru.Len() // the map holds settled entries and those in flight
	c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Joins:     c.joins.Load(),
		Evictions: c.evictions.Load(),
		Cost:      used,
		InFlight:  inFlight,
	}
}

// Reset drops every settled entry and zeroes the counters. Builds in
// flight keep their entries and settle normally.
func (c *Cache[K, V]) Reset() {
	c.mu.Lock()
	for e := c.lru.Front(); e != nil; e = c.lru.Front() {
		delete(c.entries, c.lru.Remove(e).(*slot[K, V]).key)
	}
	c.used = 0
	c.mu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
	c.joins.Store(0)
	c.evictions.Store(0)
}

// claim resolves key to a settled slot (lead false: read its val) or to
// a fresh in-flight slot the caller now leads and must settle or
// abandon. It counts hits and joins; the leader counts its own miss.
func (c *Cache[K, V]) claim(key K) (s *slot[K, V], lead bool) {
	for {
		c.mu.Lock()
		s = c.entries[key]
		if s == nil {
			s = &slot[K, V]{key: key, done: make(chan struct{})}
			c.entries[key] = s
			c.mu.Unlock()
			return s, true
		}
		if s.settled {
			c.lru.MoveToFront(s.elem)
			c.mu.Unlock()
			c.hits.Add(1)
			return s, false
		}
		c.mu.Unlock()
		c.joins.Add(1)
		<-s.done
		// A settled build serves its followers even if a later settle
		// has already evicted it; an abandoned one is gone from the map,
		// and the next pass claims the key afresh.
		if s.settled {
			c.hits.Add(1)
			return s, false
		}
	}
}

// settle publishes the leader's value, evicts least-recently-used
// entries other than this one while the budget is exceeded, and wakes
// the followers.
func (c *Cache[K, V]) settle(s *slot[K, V], v V) {
	cost := int64(1)
	if c.cost != nil {
		cost = c.cost(v)
	}
	c.mu.Lock()
	s.val, s.cost, s.settled = v, cost, true
	s.elem = c.lru.PushFront(s)
	c.used += cost
	for c.used > c.budget && c.lru.Back() != s.elem {
		old := c.lru.Remove(c.lru.Back()).(*slot[K, V])
		delete(c.entries, old.key)
		c.used -= old.cost
		c.evictions.Add(1)
	}
	c.mu.Unlock()
	close(s.done)
}

// abandon removes a build that failed and wakes its followers, which
// claim the key again.
func (c *Cache[K, V]) abandon(s *slot[K, V]) {
	c.mu.Lock()
	delete(c.entries, s.key)
	c.mu.Unlock()
	close(s.done)
}
