// Package resultcache is a golden-test stand-in for the real
// tapeworm/internal/resultcache: it redeclares the Acquire/Release claim
// API under the same import path, so the pairing analyzer's
// fully-qualified name matching sees the genuine result-cache pair
// without the test depending on the real store's internals.
package resultcache

import "errors"

// Digest mirrors the real content address.
type Digest [32]byte

// Claim mirrors the real claim handle.
type Claim struct {
	val any
	hit bool
}

// Store mirrors the real store.
type Store struct{}

// Acquire mirrors the real claim acquisition.
func (s *Store) Acquire(d Digest, dir string) (*Claim, error) {
	if dir == "missing" {
		return nil, errors.New("no such directory")
	}
	return &Claim{}, nil
}

// Cached mirrors the hit check.
func (c *Claim) Cached() (any, bool) { return c.val, c.hit }

// Complete mirrors the value publish — deliberately not a release.
func (c *Claim) Complete(v any) error { return nil }

// Release mirrors the idempotent claim release.
func (c *Claim) Release() {}

// acquireBalanced is the documented claim protocol: Release deferred on
// every path, Complete publishing before the fresh-simulation return.
func acquireBalanced(s *Store, d Digest) (any, error) {
	claim, err := s.Acquire(d, "")
	if err != nil {
		return nil, err
	}
	defer claim.Release()
	if v, ok := claim.Cached(); ok {
		return v, nil
	}
	v := "simulated"
	if err := claim.Complete(v); err != nil {
		return nil, err
	}
	return v, nil
}

// hitWithoutRelease forgets the Release on the cache-hit path. The hit
// value is consumed in place rather than returned: a signature carrying
// a non-error result would read as an ownership transfer to the facts
// engine instead of a leak.
func hitWithoutRelease(s *Store, d Digest, sink func(any)) error {
	claim, err := s.Acquire(d, "")
	if err != nil {
		return err
	}
	if v, ok := claim.Cached(); ok {
		sink(v)
		return nil // want `result cache claim acquired but not released`
	}
	claim.Release()
	return nil
}

// completeIsNotRelease publishes the value but never releases the claim:
// Complete alone must not satisfy the pair.
func completeIsNotRelease(s *Store, d Digest) error {
	claim, err := s.Acquire(d, "")
	if err != nil {
		return err
	}
	return claim.Complete("simulated") // want `result cache claim acquired but not released`
}

// simulateLeakedOnError releases on the happy path only: the early
// return after a successful acquire leaks the claim, stalling every
// single-flight follower of the digest.
func simulateLeakedOnError(s *Store, d Digest, bad bool) error {
	claim, err := s.Acquire(d, "")
	if err != nil {
		return err
	}
	if bad {
		return errors.New("simulation failed") // want `result cache claim acquired but not released`
	}
	claim.Release()
	return nil
}

// neverReleased forgets the release entirely. It returns only the
// lookup error — a function returning the claim itself would be an
// ownership-transfer shape the facts engine proves instead of flagging.
func neverReleased(s *Store, d Digest) error {
	claim, err := s.Acquire(d, "")
	if err != nil {
		return err
	}
	claim.Cached()
	return nil // want `result cache claim acquired but not released`
}

// acquireTransfer hands the claim to its caller. The annotation is
// redundant: every exit hands back the same surplus with a non-error
// carrier, so the facts engine proves the transfer and asks for the
// directive's deletion.
//
//twvet:transfer — ownership moves to the caller.
func acquireTransfer(s *Store, d Digest) (*Claim, error) { // want `ownership transfer by acquireTransfer is provable inter-procedurally`
	return s.Acquire(d, "")
}

// parked holds a claim released at sweep teardown, outside any caller's
// view.
var parked *Claim

// acquireParked parks the claim in package state: the caller cannot see
// the acquisition and no result carries it, so the engine cannot prove
// the transfer and the annotation is load-bearing.
//
//twvet:transfer
func acquireParked(s *Store, d Digest) error {
	claim, err := s.Acquire(d, "")
	if err != nil {
		return err
	}
	parked = claim
	return nil
}

var _ = acquireBalanced
var _ = hitWithoutRelease
var _ = completeIsNotRelease
var _ = simulateLeakedOnError
var _ = neverReleased
var _ = acquireTransfer
var _ = acquireParked
