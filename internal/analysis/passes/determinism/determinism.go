// Package determinism flags sources of nondeterminism in packages whose
// output must be byte-identical at any parallelism (the PR 1 invariant):
//
//   - `range` over a map in a result-producing package, unless the loop
//     merely collects keys that are sorted immediately afterwards, or the
//     site is annotated //twvet:allow maporder (commutative accumulation).
//     This is exactly the bug class fixed by hand in AddrSpace.pages.
//   - wall-clock reads (time.Now/Since/Until) and nondeterministic random
//     sources (math/rand, crypto/rand) outside the allowlist: the
//     telemetry layer (timing is its job), cmd/ wall-clock reporting, and
//     tests.
//
// Simulation randomness must come from the seeded internal/rng stream so
// every table is reproducible from its seed.
package determinism

import (
	"go/ast"
	"go/types"

	"tapeworm/internal/analysis"
)

// Analyzer is the determinism pass.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "flag unordered map iteration in result packages and wall-clock/rand use outside the allowlist",
	Run:  run,
}

// resultPkgs are the packages whose rendered tables, reports, and event
// streams must be byte-identical run to run. internal/workload is in
// scope because the program compiler is seed-pure: a compiled replay must
// be bit-identical to the interpreter, so the package may not introduce
// iteration-order or clock nondeterminism.
var resultPkgs = []string{
	"internal/core", "internal/experiment", "internal/stats", "internal/telemetry",
	"internal/workload",
	// The digest encoders must be canonical: ranging an unsorted map into
	// a Hasher would give the same identity different digests run to run,
	// which silently defeats every cache lookup.
	"internal/resultcache",
}

// clockExempt are packages allowed to read the wall clock: telemetry owns
// run timing, and cmd binaries report wall-clock progress.
func clockExempt(path string) bool {
	return analysis.PathHasSuffix(path, "internal/telemetry") ||
		analysis.PathHasSegment(path, "cmd")
}

// nondeterministicImports are random sources that bypass the seeded
// internal/rng stream.
var nondeterministicImports = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
	"crypto/rand":  true,
}

// clockFuncs are the time-package functions that read the wall clock.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func run(pass *analysis.Pass) error {
	pkgInResultScope := pass.PathInScope(resultPkgs...)
	pkgClockScope := !clockExempt(pass.PkgPath)

	for _, file := range pass.Files {
		dirs := pass.FileDirectives(file)
		mapScope := pkgInResultScope || dirs.Scoped("determinism")
		clockScope := (pkgClockScope || dirs.Scoped("determinism")) && !dirs.Scoped("walltime-exempt")

		if clockScope {
			checkImports(pass, file, dirs)
		}

		// Walk with an explicit parent stack so the sorted-keys idiom can
		// look at the statements following a range loop, and so the
		// enclosing function's //twvet: directives apply.
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			switch n := n.(type) {
			case *ast.RangeStmt:
				if mapScope {
					checkMapRange(pass, dirs, stack, n)
				}
			case *ast.SelectorExpr, *ast.Ident:
				if clockScope {
					checkClockUse(pass, dirs, stack, n)
				}
			}
			stack = append(stack, n)
			return true
		})
	}
	return nil
}

// checkImports flags imports of nondeterministic random sources.
func checkImports(pass *analysis.Pass, file *ast.File, dirs *analysis.Directives) {
	for _, imp := range file.Imports {
		p, err := analysis.ImportPathOf(imp)
		if err != nil {
			continue
		}
		if !nondeterministicImports[p] || dirs.AllowedAt(imp, "rand") {
			continue
		}
		pass.Reportf(imp.Pos(),
			"import of %s in a deterministic package: draw randomness from the seeded internal/rng stream or annotate //twvet:allow rand", p)
	}
}

// checkClockUse flags references to time.Now/Since/Until.
func checkClockUse(pass *analysis.Pass, dirs *analysis.Directives, stack []ast.Node, n ast.Node) {
	sel, ok := n.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel]
	if !ok {
		return
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !clockFuncs[fn.Name()] {
		return
	}
	if dirs.AllowedAt(n, "walltime") || dirs.FuncAllowed(analysis.EnclosingFunc(stack), "walltime") {
		return
	}
	pass.Reportf(n.Pos(),
		"time.%s reads the wall clock in a deterministic package: only telemetry timing, cmd wall-clock, and tests may (//twvet:allow walltime)", fn.Name())
}

// checkMapRange flags `for ... := range m` over a map unless it is the
// collect-then-sort idiom or is annotated order-insensitive.
func checkMapRange(pass *analysis.Pass, dirs *analysis.Directives, stack []ast.Node, rs *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	// `for range m {}` observes no keys, so no order either.
	if rs.Key == nil && rs.Value == nil {
		return
	}
	// Recognize the idiom before consulting directives: an //twvet:allow
	// maporder on a collect-then-sort loop suppresses nothing and should
	// be reported stale rather than marked used.
	if isCollectThenSort(pass, stack, rs) {
		return
	}
	if dirs.AllowedAt(rs, "maporder") || dirs.FuncAllowed(analysis.EnclosingFunc(stack), "maporder") {
		return
	}
	pass.Reportf(rs.Pos(),
		"iteration over map %s has nondeterministic order in a result-producing package: sort the keys first or annotate //twvet:allow maporder",
		types.ExprString(rs.X))
}

// isCollectThenSort recognizes the sanctioned sorted-iteration idiom: the
// loop body is a single append into a slice variable, and a later
// statement in the same block passes that variable to sort.* or
// slices.Sort*.
func isCollectThenSort(pass *analysis.Pass, stack []ast.Node, rs *ast.RangeStmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	asg, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	dst, ok := ast.Unparen(asg.Lhs[0]).(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := ast.Unparen(asg.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return false
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fun.Name != "append" || len(call.Args) < 2 {
		return false
	}
	src, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok || src.Name != dst.Name {
		return false
	}

	// Find the block that contains the range statement and scan the
	// statements after it for a sort call on dst.
	block := analysis.EnclosingBlockStmts(stack)
	seen := false
	for _, stmt := range block {
		if stmt == ast.Stmt(rs) {
			seen = true
			continue
		}
		if !seen {
			continue
		}
		if sortsVar(pass, stmt, dst.Name) {
			return true
		}
	}
	return false
}

// sortsVar reports whether the statement calls a sort/slices sorting
// function with the named variable as first argument.
func sortsVar(pass *analysis.Pass, stmt ast.Stmt, name string) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		if arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && arg.Name == name {
			found = true
			return false
		}
		return true
	})
	return found
}
