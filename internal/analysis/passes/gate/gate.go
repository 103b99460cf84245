// Package gate enforces options hygiene in the experiment harness (the
// PR 2 panic class): every exported driver that takes an Options-style
// value — any named type with a `Validate() error` method — must call
// Validate on it, with the error handled, before the options are used
// for anything else. Unvalidated options used to surface as panics deep
// inside kernel boot (frames <= 0, malformed sampling specs) instead of
// an error at the driver boundary.
package gate

import (
	"go/ast"
	"go/types"

	"tapeworm/internal/analysis"
)

// Analyzer is the options-validation gate pass.
var Analyzer = &analysis.Analyzer{
	Name: "gate",
	Doc:  "exported experiment drivers must call Options.Validate (and handle its error) before using the options",
	Run:  run,
}

// scopePkgs are the packages whose exported functions are experiment
// drivers.
var scopePkgs = []string{"internal/experiment"}

func run(pass *analysis.Pass) error {
	inScope := pass.PathInScope(scopePkgs...)
	for _, file := range pass.Files {
		dirs := pass.FileDirectives(file)
		if !inScope && !dirs.Scoped("gate") {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !fn.Name.IsExported() || fn.Recv != nil {
				continue
			}
			checkDriver(pass, dirs, fn)
		}
	}
	return nil
}

// checkDriver verifies that each validatable parameter of an exported
// function is validated before first use.
func checkDriver(pass *analysis.Pass, dirs *analysis.Directives, fn *ast.FuncDecl) {
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			obj, ok := pass.TypesInfo.Defs[name].(*types.Var)
			if !ok || !hasValidateMethod(pass, obj.Type()) {
				continue
			}
			checkParam(pass, dirs, fn, name.Name, obj)
		}
	}
}

// hasValidateMethod reports whether the type (or its pointer) has a
// method Validate() error.
func hasValidateMethod(pass *analysis.Pass, t types.Type) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, pass.Pkg, "Validate")
	m, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig := m.Type().(*types.Signature)
	if sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return false
	}
	named, ok := sig.Results().At(0).Type().(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

// checkParam requires the first statement referencing the parameter to
// contain a handled param.Validate() call. The allow directive is
// consulted only once a violation is found, so an allow on a compliant
// driver reads as stale.
func checkParam(pass *analysis.Pass, dirs *analysis.Directives, fn *ast.FuncDecl, name string, obj *types.Var) {
	first := firstUseStmt(pass, fn.Body, obj)
	if first == nil {
		return // parameter unused; nothing to gate
	}
	call := validateCallOn(pass, first, obj)
	if call == nil {
		if dirs.FuncAllowed(fn, "gate") {
			return
		}
		pass.Reportf(first.Pos(),
			"exported driver %s uses %s before calling %s.Validate: validate options at the boundary (PR 2 panic class) or annotate //twvet:allow gate",
			fn.Name.Name, name, name)
		return
	}
	if discardsError(first, call) {
		if dirs.FuncAllowed(fn, "gate") {
			return
		}
		pass.Reportf(call.Pos(),
			"exported driver %s ignores the error from %s.Validate: reject invalid options instead of letting them panic later",
			fn.Name.Name, name)
	}
}

// firstUseStmt returns the top-level statement of the function body that
// first references the object.
func firstUseStmt(pass *analysis.Pass, body *ast.BlockStmt, obj *types.Var) ast.Stmt {
	for _, stmt := range body.List {
		uses := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
				uses = true
				return false
			}
			return !uses
		})
		if uses {
			return stmt
		}
	}
	return nil
}

// validateCallOn finds a call of the form <param>.Validate() within the
// statement, or nil.
func validateCallOn(pass *analysis.Pass, stmt ast.Stmt, obj *types.Var) *ast.CallExpr {
	var found *ast.CallExpr
	ast.Inspect(stmt, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Validate" {
			return true
		}
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			found = call
			return false
		}
		return true
	})
	return found
}

// discardsError reports whether the Validate call's result is thrown
// away: a bare expression statement, or assignment to blank.
func discardsError(stmt ast.Stmt, call *ast.CallExpr) bool {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		return ast.Unparen(s.X) == ast.Expr(call)
	case *ast.AssignStmt:
		for i, rhs := range s.Rhs {
			if ast.Unparen(rhs) == ast.Expr(call) && i < len(s.Lhs) {
				if id, ok := s.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
					return true
				}
			}
		}
	}
	return false
}
