package resultcache

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
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

// Stats is a snapshot of cache or store activity.
type Stats struct {
	Hits      uint64 // requests served from cache (either tier)
	Misses    uint64 // requests that had to build or simulate
	Joins     uint64 // requests that blocked on another in-flight identical request
	Evictions uint64 // settled entries dropped for the budget
	Loads     uint64 // results loaded from the persistent tier (Store only)
	Saves     uint64 // results written to the persistent tier (Store only)
	Cost      int64  // summed cost of the settled entries held now (a Store's: their count)
	InFlight  int    // entries held now that are neither settled nor abandoned: builds running, claims unreleased
}

// Store is a two-tier content-addressed result store: an in-memory Cache
// plus an optional directory of persisted results. Values are opaque to
// the store; the encode/decode pair supplied at construction converts
// them to bytes for the persistent tier.
type Store struct {
	mem    *Cache[Digest, any]
	encode func(any) ([]byte, error)
	decode func([]byte) (any, error)

	loads, saves atomic.Uint64
}

// New returns an empty store bounded to max settled in-memory entries.
// encode/decode serve the persistent tier and may be nil when no caller
// passes a directory to Acquire.
func New(max int, encode func(any) ([]byte, error), decode func([]byte) (any, error)) *Store {
	return &Store{mem: NewCache[Digest, any](int64(max), nil), encode: encode, decode: decode}
}

// Stats snapshots store activity counters.
func (s *Store) Stats() Stats {
	st := s.mem.Stats()
	st.Loads, st.Saves = s.loads.Load(), s.saves.Load()
	return st
}

// Reset drops every settled entry and zeroes the counters. In-flight
// claims keep their entries and settle normally. For benchmarks and
// tests that need a cold in-process tier.
func (s *Store) Reset() {
	s.mem.Reset()
	s.loads.Store(0)
	s.saves.Store(0)
}

// Claim is the caller's handle on one Acquire. Every claim must be
// Released on every path; a leader additionally calls Complete to publish
// the simulated value before releasing. Release without Complete abandons
// the claim, waking followers to elect a new leader. A leader claim stays
// in Stats().InFlight until it is completed or released.
type Claim struct {
	s        *Store
	dir      string
	e        *slot[Digest, any] // nil for a cache-hit claim
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
	e, lead := s.mem.claim(d)
	if !lead {
		return &Claim{s: s, val: e.val, hit: true, finished: true}, nil
	}
	// The leader's fresh entry may still be satisfied from the directory.
	if dir != "" {
		val, err := s.load(d, dir)
		if err == nil {
			s.mem.settle(e, val)
			s.loads.Add(1)
			s.mem.hits.Add(1)
			return &Claim{s: s, val: val, hit: true, finished: true}, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			s.mem.abandon(e)
			return nil, err
		}
	}
	s.mem.misses.Add(1)
	return &Claim{s: s, dir: dir, e: e}, nil
}

// Get is Acquire, build on a miss, Complete and Release in one call: it
// returns the cached value, or build's after publishing it. A persist
// failure is returned with the value, which is already published in
// memory.
func (s *Store) Get(d Digest, dir string, build func() (any, error)) (any, error) {
	claim, err := s.Acquire(d, dir)
	if err != nil {
		return nil, err
	}
	defer claim.Release()
	if v, ok := claim.Cached(); ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return nil, err
	}
	return v, claim.Complete(v)
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
	c.s.mem.settle(c.e, val)
	if c.dir == "" {
		return nil
	}
	if err := c.s.save(c.e.key, c.dir, val); err != nil {
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
	c.s.mem.abandon(c.e)
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
