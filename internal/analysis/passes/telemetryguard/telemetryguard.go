// Package telemetryguard enforces the telemetry layer's zero-overhead-
// when-disabled contract (the PR 2 invariant) in the simulation hot
// paths: every recording call on a *telemetry.Run reachable from
// mach.Execute/ExecuteRun — and, by package scope, anything else in
// mach/kernel/core — must be dominated by a nil (or Enabled) check on the
// same receiver expression, so the disabled branch pays exactly one
// pointer test and constructs no arguments. The receiver itself must be
// a simple expression (no call), so evaluating the guard cannot allocate
// or do hidden work.
//
// The recording methods are nil-safe no-ops, so unguarded calls are
// correct — but they evaluate their arguments and make a call on the
// rare-path-turned-hot path, which is exactly the overhead the telemetry
// design promises away.
package telemetryguard

import (
	"go/ast"
	"go/types"

	"tapeworm/internal/analysis"
)

// Analyzer is the telemetry zero-overhead pass.
var Analyzer = &analysis.Analyzer{
	Name: "telemetryguard",
	Doc:  "telemetry recording calls in hot-path packages must be nil-guarded and allocation-free when disabled",
	Run:  run,
}

// hotPkgs are the packages containing the machine execution hot paths.
var hotPkgs = []string{"internal/mach", "internal/kernel", "internal/core"}

// guardedMethods are the *telemetry.Run recording methods that evaluate
// arguments; Enabled is the guard itself and needs none.
var guardedMethods = map[string]bool{
	"Event": true, "Count": true, "SetCounter": true, "SetTiming": true,
}

func run(pass *analysis.Pass) error {
	inHotPkg := pass.PathInScope(hotPkgs...)
	for _, file := range pass.Files {
		dirs := pass.FileDirectives(file)
		if !inHotPkg && !dirs.Scoped("telemetryguard") {
			continue
		}
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if call, ok := n.(*ast.CallExpr); ok {
				checkCall(pass, dirs, stack, call)
			}
			stack = append(stack, n)
			return true
		})
	}
	return nil
}

// checkCall flags a recording call on a *telemetry.Run receiver that is
// not dominated by a guard on that receiver.
func checkCall(pass *analysis.Pass, dirs *analysis.Directives, stack []ast.Node, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || !guardedMethods[fn.Name()] || !isTelemetryRunMethod(fn) {
		return
	}
	recv := ast.Unparen(sel.X)
	recvStr := types.ExprString(recv)
	if containsCall(recv) {
		if dirs.AllowedAt(call, "telemetry") || dirs.FuncAllowed(analysis.EnclosingFunc(stack), "telemetry") {
			return
		}
		pass.Reportf(call.Pos(),
			"telemetry %s receiver %s is not a simple expression: bind it to a variable so the disabled check is one pointer test",
			fn.Name(), recvStr)
		return
	}
	// Establish guardedness before consulting directives, so an allow on
	// an already-guarded call counts as suppressing nothing (stale).
	if guardedByAncestor(pass, stack, call, recvStr) || guardedByEarlyReturn(pass, stack, call, recvStr) {
		return
	}
	if dirs.AllowedAt(call, "telemetry") || dirs.FuncAllowed(analysis.EnclosingFunc(stack), "telemetry") {
		return
	}
	pass.Reportf(call.Pos(),
		"telemetry call %s.%s is not guarded: wrap in `if %s != nil { ... }` so the disabled path constructs no arguments",
		recvStr, fn.Name(), recvStr)
}

// isTelemetryRunMethod reports whether fn is a method of
// tapeworm/internal/telemetry.Run.
func isTelemetryRunMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Run" && obj.Pkg() != nil &&
		analysis.PathHasSuffix(obj.Pkg().Path(), "internal/telemetry")
}

// containsCall reports whether the expression contains any call (an
// accessor in the receiver chain would run even when telemetry is off).
func containsCall(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); ok {
			found = true
			return false
		}
		return true
	})
	return found
}

// guardedByAncestor reports whether an enclosing if statement's condition
// establishes recv != nil (or recv.Enabled()) on the branch containing
// the call.
func guardedByAncestor(pass *analysis.Pass, stack []ast.Node, call *ast.CallExpr, recvStr string) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		if containsNode(ifs.Body, call) && condEstablishes(ifs.Cond, recvStr, true) {
			return true
		}
		if ifs.Else != nil && containsNode(ifs.Else, call) && condEstablishes(ifs.Cond, recvStr, false) {
			return true
		}
	}
	return false
}

// guardedByEarlyReturn reports whether the enclosing function bails out
// with `if recv == nil { return }` (or `if !recv.Enabled() { return }`)
// before the call.
func guardedByEarlyReturn(pass *analysis.Pass, stack []ast.Node, call *ast.CallExpr, recvStr string) bool {
	body := enclosingFuncBody(stack)
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || ifs.Pos() >= call.Pos() {
			return !found
		}
		if condEstablishes(ifs.Cond, recvStr, false) && terminates(ifs.Body) {
			found = true
			return false
		}
		return true
	})
	return found
}

// enclosingFuncBody returns the body of the innermost function literal or
// declaration on the stack.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

// terminates reports whether a block's last statement leaves the
// function (return or panic).
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// condEstablishes reports whether cond being true (onTrue) or false
// (!onTrue) proves the receiver is non-nil/enabled.
//
//	onTrue:  recv != nil, recv.Enabled(), and conjunctions containing one
//	!onTrue: recv == nil, !recv.Enabled(), and disjunctions containing one
func condEstablishes(cond ast.Expr, recvStr string, onTrue bool) bool {
	cond = ast.Unparen(cond)
	switch e := cond.(type) {
	case *ast.BinaryExpr:
		switch e.Op.String() {
		case "!=":
			return onTrue && isNilCheck(e, recvStr)
		case "==":
			return !onTrue && isNilCheck(e, recvStr)
		case "&&":
			return onTrue && (condEstablishes(e.X, recvStr, true) || condEstablishes(e.Y, recvStr, true))
		case "||":
			return !onTrue && (condEstablishes(e.X, recvStr, false) || condEstablishes(e.Y, recvStr, false))
		}
	case *ast.UnaryExpr:
		if e.Op.String() == "!" {
			return condEstablishes(e.X, recvStr, !onTrue)
		}
	case *ast.CallExpr:
		// recv.Enabled() on the true branch.
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok && onTrue &&
			sel.Sel.Name == "Enabled" && types.ExprString(ast.Unparen(sel.X)) == recvStr {
			return true
		}
	}
	return false
}

// isNilCheck reports whether the comparison is `recv <op> nil` (either
// operand order).
func isNilCheck(e *ast.BinaryExpr, recvStr string) bool {
	x, y := ast.Unparen(e.X), ast.Unparen(e.Y)
	return (isNilIdent(y) && types.ExprString(x) == recvStr) ||
		(isNilIdent(x) && types.ExprString(y) == recvStr)
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// containsNode reports whether root contains target.
func containsNode(root, target ast.Node) bool {
	if root == nil || target == nil {
		return false
	}
	return root.Pos() <= target.Pos() && target.End() <= root.End()
}
