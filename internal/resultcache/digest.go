// Package resultcache is a content-addressed store for deterministic
// simulation results. The repo's core invariant — every run's output is a
// pure function of its execution identity (workload spec, simulator
// configuration, seeds, frames, the reference-path bit), verified by the
// experiment package's differential test against its reference executor —
// makes
// results reusable: a run whose identity digest has been seen before can
// be served from cache instead of re-simulated.
//
// The package also holds the repo's one in-process memo, Cache: a
// single-flight LRU bounded by a cost budget, behind the compiled-image,
// phase-plan and interval-profile caches as well as the store.
//
// The store has two tiers. The in-process tier is a Cache from digest to
// result value (process-wide, bounded, eviction only costs a
// re-simulation). The optional persistent tier (a directory of one gob
// file per digest, each written atomically) makes results survive across
// processes; files whose recorded identity disagrees with the request
// are rejected with ErrMismatch, torn or garbage files with ErrCorrupt.
//
// Concurrent identical requests are deduplicated single-flight: the first
// claimant becomes the leader and simulates; followers block until the
// leader publishes (or abandons) and then read the published value. A
// leader that is never released wedges every later request for its
// digest; Stats().InFlight counts the leaders still outstanding.
package resultcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
)

// Digest is the canonical content address of one execution identity.
type Digest [sha256.Size]byte

// String renders the digest as lowercase hex (the persistent tier's file
// naming).
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// DigestOf returns the content address of an execution identity: sha256
// over a canonical encoding of parts, each walked by reflection in turn.
// An identity is therefore its structs' whole content, with no field
// list to keep in step with them.
//
//   - A struct writes its fields in declaration order, unexported fields
//     included, and skips a field tagged `hash:"-"`.
//   - A pointer or slice writes a presence bit first, so nil stays
//     distinct from a pointer to a zero value and from an empty slice.
//   - A slice or string writes its length before its elements or bytes,
//     so no boundary can shift under concatenation; an array writes its
//     elements.
//   - Integers are written as 64 bits, floats by their IEEE-754 bits,
//     booleans as one byte.
//
// Maps, funcs, chans and interfaces have no canonical encoding: DigestOf
// panics on one, a programming error the first test that digests the
// type catches. Callers lead with a versioned label ("experiment.run/v6")
// and bump it whenever an identity's layout or meaning changes.
func DigestOf(parts ...any) Digest {
	var e encoder
	for _, p := range parts {
		e.value(reflect.ValueOf(p))
	}
	return sha256.Sum256(e.buf)
}

// encoder accumulates DigestOf's canonical encoding.
type encoder struct{ buf []byte }

func (e *encoder) uint64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }

func (e *encoder) bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

func (e *encoder) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		e.bool(v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.uint64(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		e.uint64(v.Uint())
	case reflect.Float32, reflect.Float64:
		e.uint64(math.Float64bits(v.Float()))
	case reflect.String:
		e.uint64(uint64(v.Len()))
		e.buf = append(e.buf, v.String()...)
	case reflect.Pointer:
		e.bool(!v.IsNil())
		if !v.IsNil() {
			e.value(v.Elem())
		}
	case reflect.Slice:
		e.bool(!v.IsNil())
		e.uint64(uint64(v.Len()))
		fallthrough
	case reflect.Array:
		for i := range v.Len() {
			e.value(v.Index(i))
		}
	case reflect.Struct:
		t := v.Type()
		for i := range v.NumField() {
			if t.Field(i).Tag.Get("hash") != "-" {
				e.value(v.Field(i))
			}
		}
	default:
		panic("resultcache: DigestOf has no canonical encoding for kind " + v.Kind().String())
	}
}
