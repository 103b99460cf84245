// Package suite assembles the canonical twvet analyzer set.
package suite

import (
	"tapeworm/internal/analysis"
	"tapeworm/internal/analysis/passes/determinism"
	"tapeworm/internal/analysis/passes/gate"
	"tapeworm/internal/analysis/passes/lockcheck"
	"tapeworm/internal/analysis/passes/telemetryguard"
)

// All returns the analyzers twvet runs, in report order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism.Analyzer,
		gate.Analyzer,
		lockcheck.Analyzer,
		telemetryguard.Analyzer,
	}
}
