package analysis

import (
	"go/ast"
	"go/token"
	"maps"
	"slices"
	"strings"
)

// directive is one parsed //twvet: comment: a verb ("allow", "scope",
// "nohash", "digest") and its argument (the check name, the digested
// type, or the first word of a nohash reason). Suppression verbs track
// whether any pass consulted them at a would-be finding, so stale
// annotations can be reported.
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

// staleVerbs are the suppression verbs subject to stale-directive
// detection. scope (testdata opt-in) and digest (a hashcheck input, always
// consumed when the pass runs) are declarations, not suppressions.
var staleVerbs = map[string]bool{"allow": true, "nohash": true}

// Directives indexes the //twvet: comments of one file by line, plus the
// file-level scope set. Build one per file with Pass.FileDirectives so
// usage marks are shared across passes.
type Directives struct {
	byLine map[int][]*directive
	scopes map[string]bool
	pass   *Pass
	file   *ast.File
}

// NewDirectives parses every //twvet: comment in f.
func NewDirectives(pass *Pass, f *ast.File) *Directives {
	d := &Directives{byLine: map[int][]*directive{}, scopes: map[string]bool{}, pass: pass, file: f}
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

// find returns the directive with the given verb and arg on the exact
// line, or nil. An empty arg matches any argument.
func (d *Directives) find(line int, verb, arg string) *directive {
	for _, dir := range d.byLine[line] {
		if dir.verb == verb && (arg == "" || dir.arg == arg) {
			return dir
		}
	}
	return nil
}

// allowAt reports an //twvet:allow directive for check on the exact line
// and marks a match used. Passes must consult it only at a would-be
// finding, so stale detection stays accurate.
func (d *Directives) allowAt(line int, check string) bool {
	dir := d.find(line, "allow", check)
	if dir == nil {
		return false
	}
	dir.used = true
	return true
}

// AllowedAt reports whether the statement at pos is excused from the
// named check by an //twvet:allow directive on its own line or on the
// line immediately above it. Callers must consult it only where a finding
// would otherwise be reported; a match is marked used.
func (d *Directives) AllowedAt(pos ast.Node, check string) bool {
	line := d.pass.Fset.Position(pos.Pos()).Line
	return d.allowAt(line, check) || d.allowAt(line-1, check)
}

// funcLines returns the lines a function-level directive may occupy: the
// doc-comment lines, the declaration line, and the line above it. Lines
// are deduplicated — the last doc line usually IS the line above the
// declaration, and callers consuming directive args must see each once.
func (d *Directives) funcLines(fn *ast.FuncDecl) []int {
	seen := map[int]bool{}
	var lines []int
	add := func(line int) {
		if !seen[line] {
			seen[line] = true
			lines = append(lines, line)
		}
	}
	if fn.Doc != nil {
		for _, c := range fn.Doc.List {
			add(d.pass.Fset.Position(c.Pos()).Line)
		}
	}
	declLine := d.pass.Fset.Position(fn.Pos()).Line
	add(declLine)
	add(declLine - 1)
	return lines
}

// FuncDirectiveArgs returns the arguments of every directive with the
// given verb on fn, marking each used (the caller is consuming them as
// input, e.g. //twvet:digest type names).
func (d *Directives) FuncDirectiveArgs(fn *ast.FuncDecl, verb string) []string {
	var args []string
	for _, line := range d.funcLines(fn) {
		for _, dir := range d.byLine[line] {
			if dir.verb == verb {
				dir.used = true
				args = append(args, dir.arg)
			}
		}
	}
	return args
}

// FuncAllowed reports whether the enclosing function excuses the check
// for its whole body; a match is marked used, so callers must consult it
// only where a finding would otherwise be reported.
func (d *Directives) FuncAllowed(fn *ast.FuncDecl, check string) bool {
	if fn == nil {
		return false
	}
	for _, line := range d.funcLines(fn) {
		if d.allowAt(line, check) {
			return true
		}
	}
	return false
}

// NohashAt reports whether the node (a struct field) carries a
// //twvet:nohash directive on its line or the line above, and whether the
// directive has a non-empty reason. A match is marked used.
func (d *Directives) NohashAt(node ast.Node) (found, hasReason bool) {
	line := d.pass.Fset.Position(node.Pos()).Line
	dir := d.find(line, "nohash", "")
	if dir == nil {
		dir = d.find(line-1, "nohash", "")
	}
	if dir == nil {
		return false, false
	}
	dir.used = true
	return true, dir.arg != ""
}

// stale returns every suppression directive never marked used this run.
func (d *Directives) stale() []*directive {
	var out []*directive
	// byLine is a map; order the scan for deterministic output.
	for _, line := range slices.Sorted(maps.Keys(d.byLine)) {
		for _, dir := range d.byLine[line] {
			if staleVerbs[dir.verb] && !dir.used {
				out = append(out, dir)
			}
		}
	}
	return out
}
