package pairing_test

import (
	"testing"

	"tapeworm/internal/analysis"
	"tapeworm/internal/analysis/analysistest"
	"tapeworm/internal/analysis/passes/pairing"
)

func TestPairing(t *testing.T) {
	analysistest.Run(t, pairing.Analyzer, "pair")
}

// TestPairingBreakpointStandIn checks the breakpoint arm pair inside the
// package that declares it, against a stand-in package under the real
// import path, so the fully qualified method names match.
func TestPairingBreakpointStandIn(t *testing.T) {
	analysistest.Run(t, pairing.Analyzer, "tapeworm/internal/mach")
}

// TestPairingResultCacheClaim checks the result-cache claim lifecycle —
// Acquire acquires, Release releases (Complete publishes a value but is
// not the release), //twvet:transfer moves ownership — against a
// stand-in package under the real import path.
func TestPairingResultCacheClaim(t *testing.T) {
	analysistest.Run(t, pairing.Analyzer, "tapeworm/internal/resultcache")
}

// TestPairingCheckpointFork checks that checkpoint forks are not a
// paired resource: against a stand-in kernel under the real import path,
// a fork dropped on any path stays silent, and a //twvet:transfer on a
// fork wrapper is reported as suppressing nothing.
func TestPairingCheckpointFork(t *testing.T) {
	analysistest.RunSuite(t, []*analysis.Analyzer{pairing.Analyzer}, "tapeworm/internal/kernel")
}

// TestPairingCrossPackageFacts drives the inter-procedural engine across
// a package boundary: factdep/lib wraps the result-cache stand-in's claim
// and exports TransfersOwnership/ReleasesResource facts; factdep/use
// leaks a claim it can only see through those facts.
func TestPairingCrossPackageFacts(t *testing.T) {
	analysistest.Run(t, pairing.Analyzer,
		"tapeworm/internal/resultcache", "factdep/lib", "factdep/use")
}
