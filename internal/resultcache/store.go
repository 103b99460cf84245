package resultcache

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

var (
	// ErrMismatch reports a persisted result whose recorded identity
	// disagrees with the request (stale directory, foreign file renamed
	// into place, or a wire-format version skew).
	ErrMismatch = errors.New("resultcache: persisted result does not match requested identity")
	// ErrCorrupt reports a persisted result that cannot be decoded
	// (truncated or garbage file).
	ErrCorrupt = errors.New("resultcache: persisted result corrupt")
)

// wireVersion is the persistent tier's file format version. Result
// *content* invalidation rides on the digest (core.PhysicsVersion is
// hashed into every identity); this constant only guards the envelope
// encoding itself.
const wireVersion = 1

// Stats is a snapshot of store activity.
type Stats struct {
	Hits   uint64 // requests served from cache (either tier)
	Misses uint64 // requests that had to simulate
	Joins  uint64 // requests that blocked on another in-flight identical request
	Loads  uint64 // results loaded from the persistent tier
	Saves  uint64 // results written to the persistent tier
}

// Store is a two-tier content-addressed result store. Values are opaque
// to the store; the encode/decode pair supplied at construction converts
// them to bytes for the persistent tier.
type Store struct {
	max    int
	encode func(any) ([]byte, error)
	decode func([]byte) (any, error)

	mu      sync.Mutex
	entries map[Digest]*entry
	gen     uint64

	hits, misses, joins, loads, saves atomic.Uint64
}

// entry is one digest's slot: in flight until done is closed, settled
// (val valid) afterwards. Abandoned entries are removed from the map
// before done closes, so retrying waiters start a fresh claim.
type entry struct {
	done    chan struct{}
	val     any
	settled bool
	gen     uint64 // LRU clock, updated under Store.mu
}

// New returns an empty store bounded to max settled in-memory entries.
// encode/decode serve the persistent tier and may be nil when no caller
// passes a directory to Acquire.
func New(max int, encode func(any) ([]byte, error), decode func([]byte) (any, error)) *Store {
	if max < 1 {
		max = 1
	}
	return &Store{max: max, encode: encode, decode: decode, entries: map[Digest]*entry{}}
}

// Stats snapshots store activity counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:   s.hits.Load(),
		Misses: s.misses.Load(),
		Joins:  s.joins.Load(),
		Loads:  s.loads.Load(),
		Saves:  s.saves.Load(),
	}
}

// Reset drops every settled entry and zeroes the counters. In-flight
// claims keep their private entries and settle harmlessly off-map. For
// benchmarks and tests that need a cold in-process tier.
func (s *Store) Reset() {
	s.mu.Lock()
	//twvet:allow maporder — unconditional delete of every settled entry is order-insensitive
	for d, e := range s.entries {
		if e.settled {
			delete(s.entries, d)
		}
	}
	s.mu.Unlock()
	s.hits.Store(0)
	s.misses.Store(0)
	s.joins.Store(0)
	s.loads.Store(0)
	s.saves.Store(0)
}

// Claim is the caller's handle on one Acquire. Every claim must be
// Released exactly once on every path (the twvet pairing pass enforces
// it); a leader additionally calls Complete to publish the simulated
// value before releasing. Release without Complete abandons the claim,
// waking followers to elect a new leader.
type Claim struct {
	s        *Store
	d        Digest
	dir      string
	e        *entry // nil for a cache-hit claim
	val      any
	hit      bool
	finished bool
}

// Cached returns the cached value when the claim was served from either
// tier. ok false means this claim is the leader and must simulate.
func (c *Claim) Cached() (any, bool) { return c.val, c.hit }

// Acquire resolves one digest: a settled value (in memory, or loaded from
// dir when set) yields a hit claim; an in-flight identical request blocks
// until its leader publishes; otherwise the returned claim is the leader
// and must Complete (or Release, abandoning) the digest. A persisted file
// that exists but fails validation aborts with ErrMismatch/ErrCorrupt —
// silently re-simulating over a corrupt store would mask the corruption.
//
// The claim must be released on every path:
//
//	claim, err := store.Acquire(d, dir)
//	if err != nil { return err }
//	defer claim.Release()
//	if v, ok := claim.Cached(); ok { return use(v) }
//	v := simulate()
//	claim.Complete(v)
func (s *Store) Acquire(d Digest, dir string) (*Claim, error) {
	for {
		s.mu.Lock()
		e := s.entries[d]
		if e == nil {
			e = &entry{done: make(chan struct{})}
			s.entries[d] = e
			s.mu.Unlock()
			return s.lead(d, dir, e)
		}
		if e.settled {
			s.gen++
			e.gen = s.gen
			s.mu.Unlock()
			s.hits.Add(1)
			return &Claim{s: s, d: d, val: e.val, hit: true, finished: true}, nil
		}
		s.mu.Unlock()
		// In flight: join the leader, then re-resolve. A published value
		// is found settled on the next pass; an abandoned entry is gone
		// from the map and this waiter becomes the new leader.
		s.joins.Add(1)
		<-e.done
	}
}

// lead finishes an Acquire that claimed a fresh entry: the persistent
// tier may still satisfy it; otherwise the caller simulates.
func (s *Store) lead(d Digest, dir string, e *entry) (*Claim, error) {
	if dir != "" {
		val, err := s.load(d, dir)
		if err == nil {
			s.settle(d, e, val)
			s.loads.Add(1)
			s.hits.Add(1)
			return &Claim{s: s, d: d, val: val, hit: true, finished: true}, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			s.abandon(d, e)
			return nil, err
		}
	}
	s.misses.Add(1)
	return &Claim{s: s, d: d, dir: dir, e: e}, nil
}

// Complete publishes the leader's simulated value: it settles the
// in-memory tier (waking followers) and, when the claim carries a
// directory, persists the value. A persist failure is returned after the
// in-memory publish — followers are never blocked on the disk.
func (c *Claim) Complete(val any) error {
	if c.finished {
		return fmt.Errorf("resultcache: Complete on a finished claim")
	}
	c.finished = true
	c.s.settle(c.d, c.e, val)
	if c.dir == "" {
		return nil
	}
	if err := c.s.save(c.d, c.dir, val); err != nil {
		return err
	}
	c.s.saves.Add(1)
	return nil
}

// Release finishes the claim. For a leader that never Completed (an error
// path), the digest is abandoned so a follower can take over; for a hit
// or completed claim it is a no-op. Idempotent.
func (c *Claim) Release() {
	if c.finished {
		return
	}
	c.finished = true
	c.s.abandon(c.d, c.e)
}

// settle publishes a value under an entry and enforces the LRU bound.
func (s *Store) settle(d Digest, e *entry, val any) {
	s.mu.Lock()
	e.val = val
	e.settled = true
	s.gen++
	e.gen = s.gen
	if s.entries[d] == e {
		s.evictLocked(e)
	}
	s.mu.Unlock()
	close(e.done)
}

// evictLocked drops least-recently-used settled entries beyond the bound.
// In-flight entries are never victims: their leaders hold the only route
// to waking followers.
func (s *Store) evictLocked(keep *entry) {
	for len(s.entries) > s.max {
		var victimKey Digest
		var victim *entry
		// Generation numbers are unique, so the minimum is the same
		// victim at any iteration order; eviction only costs a
		// re-simulation (results are pure values).
		//twvet:allow maporder — unique-minimum selection is order-insensitive
		for k, v := range s.entries {
			if v != keep && v.settled && (victim == nil || v.gen < victim.gen) {
				victimKey, victim = k, v
			}
		}
		if victim == nil {
			return
		}
		delete(s.entries, victimKey)
	}
}

// abandon removes a never-settled entry and wakes its followers.
func (s *Store) abandon(d Digest, e *entry) {
	s.mu.Lock()
	if s.entries[d] == e {
		delete(s.entries, d)
	}
	s.mu.Unlock()
	close(e.done)
}

// fileWire is the persistent tier's envelope. The digest inside repeats
// the file's name so a renamed or copied-over file is caught, not trusted.
type fileWire struct {
	Version int
	Digest  []byte
	Payload []byte
}

// Path names the persistent-tier file for a digest in dir.
func Path(dir string, d Digest) string {
	return filepath.Join(dir, "result-"+d.String()+".rc")
}

// load reads and validates one persisted result.
func (s *Store) load(d Digest, dir string) (any, error) {
	f, err := os.Open(Path(dir, d))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var w fileWire
	if err := gob.NewDecoder(f).Decode(&w); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, Path(dir, d), err)
	}
	if w.Version != wireVersion {
		return nil, fmt.Errorf("%w: %s: wire version %d, want %d", ErrMismatch, Path(dir, d), w.Version, wireVersion)
	}
	if len(w.Digest) != len(d) || Digest(w.Digest) != d {
		return nil, fmt.Errorf("%w: %s: recorded digest %x", ErrMismatch, Path(dir, d), w.Digest)
	}
	val, err := s.decode(w.Payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: payload: %v", ErrCorrupt, Path(dir, d), err)
	}
	return val, nil
}

// save writes one result atomically (temp file + rename): concurrent
// processes sharing a cache directory never observe a torn file.
func (s *Store) save(d Digest, dir string, val any) error {
	payload, err := s.encode(val)
	if err != nil {
		return fmt.Errorf("resultcache: encode: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("resultcache: dir: %w", err)
	}
	path := Path(dir, d)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("resultcache: temp file: %w", err)
	}
	w := fileWire{Version: wireVersion, Digest: d[:], Payload: payload}
	if err := gob.NewEncoder(tmp).Encode(w); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: encode: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: rename: %w", err)
	}
	return nil
}
