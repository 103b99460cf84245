// Package lib wraps the result-cache stand-in's claim protocol behind
// helper functions, so the companion package factdep/use can only see the
// acquisition through this package's exported facts — the golden test for
// cross-package fact flow.
package lib

import "tapeworm/internal/resultcache"

// MustClaim acquires and panics on error: every normal exit hands the
// caller the claim, so the pairing engine exports a TransfersOwnership
// fact with no annotation anywhere.
func MustClaim(s *resultcache.Store, d resultcache.Digest) *resultcache.Claim {
	c, err := s.Acquire(d, "")
	if err != nil {
		panic(err)
	}
	return c
}

// Drop releases a claim through its parameter: the dual
// ReleasesResource fact.
func Drop(c *resultcache.Claim) {
	c.Release()
}
