// Command twvet checks the Tapeworm tree against the repo's simulation
// invariants: deterministic iteration in result-producing packages,
// zero-overhead telemetry guards on hot paths, digest completeness for the
// result cache, lock discipline, and options validation at experiment
// boundaries (DESIGN.md §9).
//
// Usage:
//
//	twvet [-github] [-list] [package pattern ...]
//
// It loads the matched packages itself through `go list -export`,
// defaulting to ./... in the current module, and prints each finding to
// stderr; -github prints GitHub Actions workflow commands to stdout
// instead, one inline pull-request annotation per finding. Any finding
// exits 2.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"tapeworm/internal/analysis"
	"tapeworm/internal/analysis/passes/suite"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("twvet: ")
	analyzers := suite.All()
	githubOut := flag.Bool("github", false, "emit GitHub workflow-command annotations")
	listOnly := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: twvet [-github] [-list] [package pattern ...]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	if *listOnly {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir, err := os.Getwd()
	if err != nil {
		log.Fatal(err)
	}
	diags, err := analysis.Run(dir, patterns, analyzers)
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range diags {
		// Module-relative paths keep the output terse.
		if rel, err := filepath.Rel(dir, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			d.Pos.Filename = rel
		}
		if *githubOut {
			fmt.Printf("::error file=%s,line=%d,col=%d,title=twvet %s::%s\n",
				d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer,
				strings.ReplaceAll(d.Message, "\n", "%0A"))
		} else {
			fmt.Fprintln(os.Stderr, d)
		}
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
}
