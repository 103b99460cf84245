// Package resultcache is a content-addressed store for deterministic
// simulation results. The repo's core invariant — every run's output is a
// pure function of its execution identity (workload spec, simulator
// configuration, seeds, frames, execution-path flags), verified by the
// verify-fastpath/gang/compiled byte-identity gates — makes
// results reusable: a run whose identity digest has been seen before can
// be served from cache instead of re-simulated.
//
// The store has two tiers. The in-process tier is an LRU map from digest
// to result value, following the compiled-image and checkpoint cache
// pattern (process-wide, bounded, eviction only costs a re-simulation).
// The optional persistent tier (a directory of one gob file per digest,
// each written atomically) makes results survive across processes; files
// whose recorded identity disagrees with the request are rejected with
// ErrMismatch, torn or garbage files with ErrCorrupt.
//
// Concurrent identical requests are deduplicated single-flight: the first
// claimant becomes the leader and simulates; followers block until the
// leader publishes (or abandons) and then read the published value. The
// Acquire/Release pair is enforced by the twvet pairing pass.
package resultcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"
	"math"
)

// Digest is the canonical content address of one execution identity.
type Digest [sha256.Size]byte

// String renders the digest as lowercase hex (the persistent tier's file
// naming).
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// Hasher accumulates an execution identity into a digest. Writes are
// canonical: every value is encoded fixed-width or length-prefixed, so the
// digest depends only on the sequence of typed values, never on encoding
// ambiguity (no two distinct value sequences share an input stream).
// Callers hash struct fields in declaration order and prefix each encoder
// with a version tag; map-valued fields must be flattened to sorted slices
// first (the twvet determinism pass flags unordered ranges here).
type Hasher struct {
	h   hash.Hash
	buf [8]byte
}

// NewHasher returns an empty identity hasher.
func NewHasher() *Hasher { return &Hasher{h: sha256.New()} }

// WriteUint64 appends a fixed-width unsigned value.
func (h *Hasher) WriteUint64(v uint64) {
	binary.BigEndian.PutUint64(h.buf[:], v)
	h.h.Write(h.buf[:])
}

// WriteInt appends an integer (as its 64-bit two's-complement image).
func (h *Hasher) WriteInt(v int) { h.WriteUint64(uint64(int64(v))) }

// WriteBool appends a boolean as one byte.
func (h *Hasher) WriteBool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	h.h.Write([]byte{b})
}

// WriteFloat64 appends a float by its IEEE-754 bit image.
func (h *Hasher) WriteFloat64(v float64) { h.WriteUint64(math.Float64bits(v)) }

// WriteString appends a length-prefixed string.
func (h *Hasher) WriteString(s string) {
	h.WriteUint64(uint64(len(s)))
	io.WriteString(h.h, s)
}

// WriteBytes appends a length-prefixed byte slice.
func (h *Hasher) WriteBytes(b []byte) {
	h.WriteUint64(uint64(len(b)))
	h.h.Write(b)
}

// Sum returns the digest of everything written so far.
func (h *Hasher) Sum() Digest {
	var d Digest
	h.h.Sum(d[:0])
	return d
}
