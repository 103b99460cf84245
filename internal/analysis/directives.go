package analysis

import (
	"go/ast"
	"go/token"
	"maps"
	"slices"
	"strings"
)

// directive is one parsed //twvet: comment: a verb ("allow" or "scope")
// and its argument (the check name). Allow directives track whether any
// pass consulted them at a would-be finding, so stale annotations can be
// reported.
type directive struct {
	verb string
	arg  string
	pos  token.Pos
	used bool
}

// verbArg renders the directive for diagnostics ("allow maporder").
func (d *directive) verbArg() string {
	if d.arg == "" {
		return d.verb
	}
	return d.verb + " " + d.arg
}

// Directives indexes the //twvet: comments of one file by line, plus the
// file-level scope set. Build one per file with Pass.FileDirectives so
// usage marks are shared across passes.
type Directives struct {
	byLine map[int][]*directive
	scopes map[string]bool
	pass   *Pass
}

// NewDirectives parses every //twvet: comment in f.
func NewDirectives(pass *Pass, f *ast.File) *Directives {
	d := &Directives{byLine: map[int][]*directive{}, scopes: map[string]bool{}, pass: pass}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//twvet:")
			if !ok {
				continue
			}
			// Allow trailing prose after the machine-readable fields:
			// "//twvet:allow maporder — commutative accumulation".
			fields := strings.Fields(text)
			if len(fields) == 0 {
				continue
			}
			dir := &directive{verb: fields[0], pos: c.Pos()}
			if len(fields) > 1 {
				dir.arg = fields[1]
			}
			line := pass.Fset.Position(c.Pos()).Line
			d.byLine[line] = append(d.byLine[line], dir)
			if dir.verb == "scope" {
				d.scopes[dir.arg] = true
			}
		}
	}
	return d
}

// Scoped reports whether the file opts into the named check via a
// file-level //twvet:scope directive (used by analyzer testdata to stand
// in for the real in-scope packages).
func (d *Directives) Scoped(check string) bool { return d.scopes[check] }

// allowAt reports an //twvet:allow directive for check on the exact line
// and marks a match used. Passes must consult it only at a would-be
// finding, so stale detection stays accurate.
func (d *Directives) allowAt(line int, check string) bool {
	for _, dir := range d.byLine[line] {
		if dir.verb == "allow" && dir.arg == check {
			dir.used = true
			return true
		}
	}
	return false
}

// AllowedAt reports whether the statement at pos is excused from the
// named check by an //twvet:allow directive on its own line or on the
// line immediately above it. Callers must consult it only where a finding
// would otherwise be reported; a match is marked used.
func (d *Directives) AllowedAt(pos ast.Node, check string) bool {
	line := d.pass.Fset.Position(pos.Pos()).Line
	return d.allowAt(line, check) || d.allowAt(line-1, check)
}

// FuncAllowed reports whether the enclosing function excuses the check
// for its whole body by an //twvet:allow directive in its doc comment, on
// its declaration line or on the line above; a match is marked used, so
// callers must consult it only where a finding would otherwise be
// reported.
func (d *Directives) FuncAllowed(fn *ast.FuncDecl, check string) bool {
	if fn == nil {
		return false
	}
	if fn.Doc != nil {
		for _, c := range fn.Doc.List {
			if d.allowAt(d.pass.Fset.Position(c.Pos()).Line, check) {
				return true
			}
		}
	}
	declLine := d.pass.Fset.Position(fn.Pos()).Line
	return d.allowAt(declLine, check) || d.allowAt(declLine-1, check)
}

// stale returns every allow directive never marked used this run.
func (d *Directives) stale() []*directive {
	var out []*directive
	// byLine is a map; order the scan for deterministic output.
	for _, line := range slices.Sorted(maps.Keys(d.byLine)) {
		for _, dir := range d.byLine[line] {
			if dir.verb == "allow" && !dir.used {
				out = append(out, dir)
			}
		}
	}
	return out
}
