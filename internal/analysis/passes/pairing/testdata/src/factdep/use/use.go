// Package use consumes factdep/lib: none of the pairing table's
// primitives appear in this file, so every diagnostic here depends on the
// TransfersOwnership/ReleasesResource facts imported from lib.
package use

import (
	"tapeworm/internal/resultcache"

	"factdep/lib"
)

// lookupBalanced claims through lib and releases through lib: balanced
// purely by imported facts.
func lookupBalanced(s *resultcache.Store, d resultcache.Digest) {
	c := lib.MustClaim(s, d)
	c.Cached()
	lib.Drop(c)
}

// lookupLeaked forgets the release: the acquisition is only visible via
// lib.MustClaim's fact.
func lookupLeaked(s *resultcache.Store, d resultcache.Digest) {
	c := lib.MustClaim(s, d)
	c.Cached()
} // want `result cache claim acquired but not released`

var _ = lookupBalanced
var _ = lookupLeaked
