// Package analysistest runs one analyzer over a golden testdata package
// and checks its diagnostics against // want annotations, in the style of
// golang.org/x/tools/go/analysis/analysistest.
//
// Testdata lives under testdata/src/<pkg>/ next to the calling test. A
// line expecting a diagnostic carries a trailing comment of the form
//
//	m[k] = v // want `nondeterministic order`
//
// where each backquoted or double-quoted string is a regular expression
// that must match the message of a diagnostic reported on that line.
// Every diagnostic must be matched by a want and every want by a
// diagnostic; mismatches in either direction fail the test.
//
// Testdata packages are invisible to the go tool (testdata/ is skipped),
// so they may deliberately violate the repo's invariants without tripping
// twvet runs over ./... — and they may import real module packages, whose
// export data is produced on the fly by `go list -export`.
package analysistest

import (
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"tapeworm/internal/analysis"
)

// want is one expected-diagnostic annotation.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// wantRE extracts the quoted expectation strings of a // want comment.
var wantRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// Run applies the analyzer to testdata/src/<pkg> and diffs its
// diagnostics against the // want annotations.
func Run(t *testing.T, a *analysis.Analyzer, pkg string) {
	t.Helper()
	run(t, []*analysis.Analyzer{a}, false, pkg)
}

// RunSuite applies a complete analyzer suite with stale-directive
// detection enabled, matching what `twvet` reports for a package.
func RunSuite(t *testing.T, analyzers []*analysis.Analyzer, pkg string) {
	t.Helper()
	run(t, analyzers, true, pkg)
}

func run(t *testing.T, analyzers []*analysis.Analyzer, stale bool, pkg string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", pkg)
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no testdata in %s: %v", dir, err)
	}
	sort.Strings(names)
	lp, err := analysis.LoadFiles(".", pkg, names)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Analyze(lp, analyzers, stale)
	if err != nil {
		t.Fatal(err)
	}
	wants := collectWants(t, lp)

	for _, d := range diags {
		if !match(wants, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// collectWants parses every // want comment in the loaded files.
func collectWants(t *testing.T, lp *analysis.LoadedPackage) []*want {
	t.Helper()
	var wants []*want
	for _, f := range lp.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				const marker = "// want "
				i := strings.Index(text, marker)
				if i < 0 {
					continue
				}
				pos := lp.Fset.Position(c.Pos())
				matches := wantRE.FindAllStringSubmatch(text[i+len(marker):], -1)
				if len(matches) == 0 {
					t.Fatalf("%s: malformed want comment: %s", pos, text)
				}
				for _, m := range matches {
					expr := m[1]
					if expr == "" {
						expr = m[2]
					}
					re, err := regexp.Compile(expr)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, expr, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// match marks and reports the first unconsumed want on the diagnostic's
// line whose regexp matches the message.
func match(wants []*want, d analysis.Diagnostic) bool {
	for _, w := range wants {
		if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			w.hit = true
			return true
		}
	}
	return false
}
