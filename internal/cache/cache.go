// Package cache implements the simulated cache and TLB models maintained by
// tw_replace() (Table 1) and by the trace-driven Cache2000 baseline.
//
// Because the models live entirely in software, simulated configurations
// are not restricted by the host hardware: caches may be larger or smaller
// than the host's, direct-mapped through fully associative, virtually or
// physically indexed, split or unified, single- or two-level (Section 3.2).
package cache

import (
	"fmt"

	"tapeworm/internal/mem"
	"tapeworm/internal/rng"
)

// Indexing selects whether the cache is indexed and tagged with virtual or
// physical addresses. The choice matters for measurement variance: a
// physically-indexed cache sees a different conflict pattern every run
// because the OS allocates different page frames (Table 9), while a
// virtually-indexed simulation is exactly repeatable.
type Indexing int

const (
	// PhysIndexed caches are indexed by physical address.
	PhysIndexed Indexing = iota
	// VirtIndexed caches are indexed by (task, virtual address).
	VirtIndexed
)

// String names the indexing mode.
func (i Indexing) String() string {
	if i == VirtIndexed {
		return "virtual"
	}
	return "physical"
}

// Replacement selects the victim-choice policy of a set.
type Replacement int

const (
	// LRU evicts the least recently used line.
	LRU Replacement = iota
	// FIFO evicts the line resident longest.
	FIFO
	// Random evicts a uniformly random line.
	Random
)

// String names the replacement policy.
func (r Replacement) String() string {
	switch r {
	case FIFO:
		return "fifo"
	case Random:
		return "random"
	}
	return "lru"
}

// Config describes one cache (or TLB) structure.
type Config struct {
	Name     string   // for reports; optional
	Size     int      // total capacity in bytes
	LineSize int      // line size in bytes (page size, for a TLB)
	Assoc    int      // ways per set; 0 means fully associative
	Indexing Indexing // virtual or physical
	Replace  Replacement
}

// Validate checks structural constraints and returns a descriptive error.
func (c Config) Validate() error {
	if c.Size <= 0 || c.Size&(c.Size-1) != 0 {
		return fmt.Errorf("cache: size %d must be a positive power of two", c.Size)
	}
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache: line size %d must be a positive power of two", c.LineSize)
	}
	if c.LineSize > c.Size {
		return fmt.Errorf("cache: line size %d exceeds cache size %d", c.LineSize, c.Size)
	}
	lines := c.Size / c.LineSize
	if c.Assoc < 0 || c.Assoc > lines {
		return fmt.Errorf("cache: associativity %d invalid for %d lines", c.Assoc, lines)
	}
	if c.Assoc != 0 && lines%c.Assoc != 0 {
		return fmt.Errorf("cache: %d lines not divisible by associativity %d", lines, c.Assoc)
	}
	return nil
}

// Lines returns the total number of lines.
func (c Config) Lines() int { return c.Size / c.LineSize }

// Ways returns the effective associativity (fully associative resolves to
// the line count).
func (c Config) Ways() int {
	if c.Assoc == 0 {
		return c.Lines()
	}
	return c.Assoc
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.Lines() / c.Ways() }

// String summarizes the geometry, e.g. "16K/16B/1-way phys lru".
func (c Config) String() string {
	return fmt.Sprintf("%s/%dB/%d-way %s %s",
		sizeStr(c.Size), c.LineSize, c.Ways(), c.Indexing, c.Replace)
}

func sizeStr(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}

// Key identifies a cached line: the line-aligned address plus, for
// virtually-indexed caches, the owning task (the tid forms part of the tag,
// per tw_replace in Table 1).
type Key struct {
	Task mem.TaskID
	Addr uint32 // line-aligned address (VA or PA per the cache's indexing)
}

// line is one tag-store entry.
type line struct {
	valid bool
	key   Key
	stamp uint64 // LRU: last use; FIFO: insertion time
}

// Cache is a set-associative simulated cache. The zero value is unusable;
// construct with New.
type Cache struct {
	cfg Config
	// lines is the tag store, sets laid out back to back (set i occupies
	// lines[i*ways : (i+1)*ways]). A flat array spares the per-access
	// slice-header load a [][]line would add in front of every tag probe.
	lines    []line
	ways     int
	lru      bool // cfg.Replace == LRU, hoisted off the hot path
	setMask  uint32
	lineMask uint32
	shift    uint
	tick     uint64
	rnd      *rng.Source // victim choice for Random replacement
	occupied int

	// mru points at the line hit by the most recent Access, exactness-
	// preserving fast path for the common run of consecutive references
	// to one line (sequential fetch) or one page (fully-associative TLBs,
	// which would otherwise scan every way per reference). Overwrites are
	// detected by re-checking validity and key; invalidations clear the
	// line in place, which the same check catches.
	mru *line

	hits   uint64
	misses uint64
}

// New builds a Cache from cfg. The rnd source is used only by Random
// replacement and may be nil for LRU/FIFO.
func New(cfg Config, rnd *rng.Source) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Replace == Random && rnd == nil {
		return nil, fmt.Errorf("cache: Random replacement requires a random source")
	}
	nsets := cfg.Sets()
	return &Cache{
		cfg:      cfg,
		lines:    make([]line, nsets*cfg.Ways()),
		ways:     cfg.Ways(),
		lru:      cfg.Replace == LRU,
		setMask:  uint32(nsets - 1),
		lineMask: ^uint32(cfg.LineSize - 1),
		shift:    log2(uint32(cfg.LineSize)),
		rnd:      rnd,
	}, nil
}

// MustNew is New but panics on configuration error; for tests and tables
// with statically known-good configurations.
func MustNew(cfg Config, rnd *rng.Source) *Cache {
	c, err := New(cfg, rnd)
	if err != nil {
		panic(err)
	}
	return c
}

func log2(x uint32) uint {
	var n uint
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// LineAddr returns addr truncated to its line boundary.
func (c *Cache) LineAddr(addr uint32) uint32 { return addr & c.lineMask }

// SetIndex returns the set that addr maps to. Exposed so that Tapeworm's
// set-sampling layer can decide which memory locations belong to a sample
// without consulting the tag store.
func (c *Cache) SetIndex(addr uint32) int {
	return int((addr >> c.shift) & c.setMask)
}

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return c.cfg.Sets() }

// key builds the tag key for an access. Physically-indexed caches ignore
// the task (physical addresses are system-unique).
func (c *Cache) key(task mem.TaskID, addr uint32) Key {
	k := Key{Addr: addr & c.lineMask}
	if c.cfg.Indexing == VirtIndexed {
		k.Task = task
	}
	return k
}

// set returns the tag-store slice for the set addr maps to.
func (c *Cache) set(addr uint32) []line {
	i := int((addr>>c.shift)&c.setMask) * c.ways
	return c.lines[i : i+c.ways]
}

// Probe reports whether (task, addr) currently hits, without updating
// replacement state or statistics.
func (c *Cache) Probe(task mem.TaskID, addr uint32) bool {
	k := c.key(task, addr)
	set := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].key == k {
			return true
		}
	}
	return false
}

// Access simulates one reference by (task, addr). It returns whether the
// reference hit and, on a miss that displaced a valid line, the displaced
// line's key. This is the trace-driven search+replace step of Figure 1;
// Tapeworm calls the same tag store only on misses, via Insert.
func (c *Cache) Access(task mem.TaskID, addr uint32) (hit bool, displaced Key, evicted bool) {
	c.tick++
	k := c.key(task, addr)
	if m := c.mru; m != nil && m.valid && m.key == k {
		if c.lru {
			m.stamp = c.tick
		}
		c.hits++
		return true, Key{}, false
	}
	// Index into the flat tag store directly; building the set sub-slice
	// costs more than the probe itself on the direct-mapped hot path.
	base := int((addr>>c.shift)&c.setMask) * c.ways
	for i := base; i < base+c.ways; i++ {
		l := &c.lines[i]
		if l.valid && l.key == k {
			if c.lru {
				l.stamp = c.tick
			}
			c.mru = l
			c.hits++
			return true, Key{}, false
		}
	}
	c.misses++
	displaced, evicted = c.insert(c.lines[base:base+c.ways], k)
	return false, displaced, evicted
}

// AccessIfHit performs a reference that never allocates: on a hit it
// updates replacement state and statistics exactly as Access does; on a
// miss it leaves the cache untouched — no insertion, no miss count, not
// even a tick. This is the single-lookup form of a probe-then-access pair
// (the no-allocate-on-write store path), which previously searched the
// same set twice.
func (c *Cache) AccessIfHit(task mem.TaskID, addr uint32) bool {
	k := c.key(task, addr)
	if m := c.mru; m != nil && m.valid && m.key == k {
		c.tick++
		if c.lru {
			m.stamp = c.tick
		}
		c.hits++
		return true
	}
	base := int((addr>>c.shift)&c.setMask) * c.ways
	for i := base; i < base+c.ways; i++ {
		l := &c.lines[i]
		if l.valid && l.key == k {
			c.tick++
			if c.lru {
				l.stamp = c.tick
			}
			c.mru = l
			c.hits++
			return true
		}
	}
	return false
}

// NoteHits records n references that are architecturally guaranteed to hit
// without touching the tag store. The caller asserts the references are
// consecutive accesses to a line it just observed resident, with nothing
// else touching the cache in between; under that contract skipping the
// tick and stamp updates cannot change any future eviction decision:
// stamps are compared only for relative order, every stamp assigned later
// is still strictly greater than every stamp assigned earlier (each
// stamping access pre-increments the tick), and within the skipped streak
// no other line's stamp changes while the streak's line remains the most
// recently used in its set. Random replacement draws from its source only
// when an insertion evicts, so the skip consumes no randomness either.
func (c *Cache) NoteHits(n int) { c.hits += uint64(n) }

// Insert places (task, addr) into the cache without a prior search,
// returning any displaced line. This is tw_replace(): Tapeworm already
// knows the reference missed (the trap said so), so no search is needed.
// Inserting an already-resident line is a no-op that refreshes its stamp.
func (c *Cache) Insert(task mem.TaskID, addr uint32) (displaced Key, evicted bool) {
	c.tick++
	k := c.key(task, addr)
	set := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].key == k {
			if c.lru {
				set[i].stamp = c.tick
			}
			return Key{}, false
		}
	}
	c.misses++
	return c.insert(set, k)
}

// insert fills an invalid way or evicts a victim per the policy.
func (c *Cache) insert(set []line, k Key) (displaced Key, evicted bool) {
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		switch c.cfg.Replace {
		case Random:
			victim = c.rnd.Intn(len(set))
		default: // LRU and FIFO both evict the minimum stamp
			victim = 0
			for i := 1; i < len(set); i++ {
				if set[i].stamp < set[victim].stamp {
					victim = i
				}
			}
		}
		displaced, evicted = set[victim].key, true
	} else {
		c.occupied++
	}
	set[victim] = line{valid: true, key: k, stamp: c.tick}
	return displaced, evicted
}

// Invalidate removes the line holding (task, addr) if present, returning
// whether a line was removed. Used by tw_remove_page-driven flushes.
func (c *Cache) Invalidate(task mem.TaskID, addr uint32) bool {
	k := c.key(task, addr)
	set := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].key == k {
			set[i] = line{}
			c.occupied--
			return true
		}
	}
	return false
}

// InvalidateRange removes every line in [addr, addr+size) for task,
// returning the keys removed. tw_remove_page uses this to flush an
// unmapped page from the simulated cache.
func (c *Cache) InvalidateRange(task mem.TaskID, addr uint32, size int) []Key {
	var removed []Key
	first := c.LineAddr(addr)
	for a := first; a < addr+uint32(size); a += uint32(c.cfg.LineSize) {
		k := c.key(task, a)
		set := c.set(a)
		for i := range set {
			if set[i].valid && set[i].key == k {
				removed = append(removed, set[i].key)
				set[i] = line{}
				c.occupied--
			}
		}
	}
	return removed
}

// InvalidateTask removes every line belonging to task (virtually-indexed
// caches only; physically-indexed caches do not tag by task). Returns the
// removed keys.
func (c *Cache) InvalidateTask(task mem.TaskID) []Key {
	var removed []Key
	for i := range c.lines {
		l := &c.lines[i]
		if l.valid && l.key.Task == task {
			removed = append(removed, l.key)
			*l = line{}
			c.occupied--
		}
	}
	return removed
}

// Flush empties the cache entirely.
func (c *Cache) Flush() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
	c.occupied = 0
}

// Len returns the number of valid lines currently cached.
func (c *Cache) Len() int { return c.occupied }

// Stats returns cumulative hit and miss counts. Note that for a Cache used
// by Tapeworm via Insert, the "miss" count equals the insert count and
// there are no recorded hits (hits never reach the simulator — that is the
// entire point of trap-driven simulation).
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// ResetStats zeroes the hit/miss counters without touching contents.
func (c *Cache) ResetStats() { c.hits, c.misses = 0, 0 }

// Keys returns the keys of all valid lines, for invariant checks in tests.
func (c *Cache) Keys() []Key {
	out := make([]Key, 0, c.occupied)
	for i := range c.lines {
		if c.lines[i].valid {
			out = append(out, c.lines[i].key)
		}
	}
	return out
}
