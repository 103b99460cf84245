// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis core, sized for this repository's needs:
// it defines the Analyzer/Pass/Diagnostic vocabulary and carries a package
// loader built on `go list -export`, so the same analyzers run over the
// tree (`twvet ./...`, TestTreeClean) and under `go test` golden tests
// without any module downloads. Each package is analyzed on its own: no
// analyzer carries information across package boundaries.
//
// The analyzers themselves live under passes/ and mechanize the
// simulator's hand-enforced invariants: deterministic iteration in
// result-producing packages, zero-overhead-when-disabled telemetry,
// digest completeness, lock discipline, and options validation in
// experiment drivers. See DESIGN.md §9 for the invariant catalog.
//
// Analyzers honor `//twvet:` directives in source comments:
//
//	//twvet:allow <check>   — suppress <check> on this line or the next
//	                          (or the whole function, in a func doc)
//	//twvet:scope <check>   — opt this file into a path-scoped check
//	                          (used by analyzer testdata)
package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Analyzer describes one static-analysis pass: a name used in diagnostics
// and directive matching, one line of documentation, and the function
// applied to each package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass is the interface between one analyzer and one type-checked
// package, mirroring golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	PkgPath   string // the package's import path

	report func(Diagnostic)
	// dirs is the package's directive index. Every analyzer's copy of the
	// Pass shares it, so stale-directive detection observes every pass's
	// suppressions.
	dirs map[*ast.File]*Directives
}

// FileDirectives returns the parsed //twvet: directives of f, cached per
// package so every analyzer (and the stale-directive scan) shares one
// index and its usage marks.
func (p *Pass) FileDirectives(f *ast.File) *Directives {
	if d, ok := p.dirs[f]; ok {
		return d
	}
	d := NewDirectives(p, f)
	p.dirs[f] = d
	return d
}

// Diagnostic is one finding, positioned in the pass's FileSet.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in go vet's file:line:col format with a
// trailing twvet analyzer tag.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (twvet %s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// PathInScope reports whether the package path matches one of the given
// import-path suffixes ("internal/core" matches "tapeworm/internal/core"
// but not "tapeworm/internal/core2000").
func (p *Pass) PathInScope(suffixes ...string) bool {
	for _, s := range suffixes {
		if PathHasSuffix(p.PkgPath, s) {
			return true
		}
	}
	return false
}

// newTypesInfo allocates a types.Info with every map populated, so passes
// can rely on Uses/Defs/Selections/Types being present.
func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// Analyze applies each analyzer to one loaded package and returns the
// diagnostics sorted by position. When stale is set (full-suite runs
// only: a single-analyzer golden test cannot observe other passes'
// suppressions), every allow/nohash directive that suppressed no finding
// is itself reported.
func Analyze(lp *LoadedPackage, analyzers []*Analyzer, stale bool) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := Pass{
		Fset:      lp.Fset,
		Files:     lp.Files,
		Pkg:       lp.Pkg,
		TypesInfo: lp.TypesInfo,
		PkgPath:   lp.PkgPath,
		report:    func(d Diagnostic) { diags = append(diags, d) },
		dirs:      map[*ast.File]*Directives{},
	}
	for _, a := range analyzers {
		p := pass // copy; each analyzer gets its own Analyzer binding
		p.Analyzer = a
		if err := a.Run(&p); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", lp.PkgPath, a.Name, err)
		}
	}
	if stale {
		diags = append(diags, staleDirectives(&pass)...)
	}
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		return cmp.Or(
			strings.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column),
			strings.Compare(a.Analyzer, b.Analyzer),
			strings.Compare(a.Message, b.Message))
	})
	return diags, nil
}

// staleDirectives reports every suppression directive no pass consulted at
// a would-be finding this run, so dead annotations cannot accumulate.
func staleDirectives(pass *Pass) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pass.Files {
		for _, dir := range pass.FileDirectives(f).stale() {
			d := Diagnostic{
				Analyzer: "staledirective",
				Pos:      pass.Fset.Position(dir.pos),
				Message: fmt.Sprintf("//twvet:%s directive suppressed nothing this run: delete it",
					dir.verbArg()),
			}
			diags = append(diags, d)
		}
	}
	return diags
}

// CalleeFunc resolves the function or method named by a call expression,
// or nil for builtins, conversions, and indirect calls.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f // package-qualified call
		}
	}
	return nil
}
