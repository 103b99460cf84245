// Command twvet checks the Tapeworm tree against the repo's simulation
// invariants: deterministic iteration in result-producing packages,
// zero-overhead telemetry guards on hot paths, balanced trap/breakpoint/
// claim pairing, and options validation at experiment boundaries.
//
// It speaks the go vet vettool protocol, so the usual invocation is
//
//	go vet -vettool=$(which twvet) ./...
//
// Run standalone (twvet [packages]) it loads packages itself via
// `go list -export` and defaults to ./... in the current module.
package main

import (
	"tapeworm/internal/analysis"
	"tapeworm/internal/analysis/passes/suite"
)

func main() {
	analysis.Main(suite.All()...)
}
