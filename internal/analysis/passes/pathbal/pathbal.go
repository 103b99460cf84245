// Package pathbal is the path-balance core behind the lockcheck pass: an
// intra-procedural abstract interpretation that requires every acquire of
// a paired resource (a mutex lock) to be balanced by a release on every
// path — both arms of a conditional, each loop iteration, every early
// return — with deferred releases credited at every exit.
//
// The engine evaluates in collect mode: it returns the would-be
// violations, and the caller decides whether to report them or excuse
// them under a //twvet:allow annotation. TryAcquires model conditional
// acquisition (sync.Mutex.TryLock): the acquire counts only on the
// success branch of `if mu.TryLock() { ... }`.
//
// Functions containing goto are skipped (none exist in this repo).
package pathbal

import (
	"go/ast"
	"go/token"
	"go/types"

	"tapeworm/internal/analysis"
)

// Pair describes one paired resource: the fully qualified acquire,
// release and conditional-acquire functions (types.Func.FullName form).
type Pair struct {
	Name        string
	Acquires    []string
	Releases    []string
	TryAcquires []string
}

// Engine checks function bodies against one pair table.
type Engine struct {
	Pairs []Pair

	acquires map[string]int
	releases map[string]int
	tries    map[string]int
}

// New builds an engine over the pair table.
func New(pairs []Pair) *Engine {
	e := &Engine{
		Pairs:    pairs,
		acquires: map[string]int{},
		releases: map[string]int{},
		tries:    map[string]int{},
	}
	for i, p := range pairs {
		for _, n := range p.Acquires {
			e.acquires[n] = i
		}
		for _, n := range p.Releases {
			e.releases[n] = i
		}
		for _, n := range p.TryAcquires {
			e.tries[n] = i
		}
	}
	return e
}

// Violation is one would-be diagnostic.
type Violation struct {
	Pos     token.Pos
	Message string
}

// Check evaluates a function declaration's body and returns its
// violations; none means the body is balanced on every path.
func (e *Engine) Check(pass *analysis.Pass, fn *ast.FuncDecl) []Violation {
	return e.CheckBody(pass, fn.Name.Name, fn.Body)
}

// CheckBody evaluates any function body (declarations and literals; name
// is used in messages). Nested function literals are not descended into —
// they execute elsewhere and are checked as their own scopes by callers
// that care (lockcheck walks goroutine bodies explicitly).
func (e *Engine) CheckBody(pass *analysis.Pass, name string, body *ast.BlockStmt) []Violation {
	if body == nil || hasGoto(body) {
		return nil
	}
	c := &checker{eng: e, pass: pass, name: name, deferred: e.zero()}
	st := c.block(body.List, state{b: e.zero()})
	if !st.terminated {
		c.checkExit(st.b, body.Rbrace)
	}
	return c.violations
}

// bal is the per-pair acquire-minus-release count along one path.
type bal []int

func (e *Engine) zero() bal { return make(bal, len(e.Pairs)) }

func (b bal) clone() bal {
	c := make(bal, len(b))
	copy(c, b)
	return c
}

func (b bal) add(o bal) {
	for i := range b {
		b[i] += o[i]
	}
}

func (b bal) equal(o bal) bool {
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

// checker evaluates one function body.
type checker struct {
	eng      *Engine
	pass     *analysis.Pass
	name     string
	deferred bal // releases (and acquires) registered by defer statements

	violations []Violation
}

// state is the abstract execution state at one program point.
type state struct {
	b          bal
	terminated bool
}

func (c *checker) violate(pos token.Pos, msg string) {
	c.violations = append(c.violations, Violation{Pos: pos, Message: msg})
}

// checkExit registers a violation when the net balance at a function
// exit, deferred credits included, leaves any pair unbalanced.
func (c *checker) checkExit(b bal, pos token.Pos) {
	net := b.clone()
	net.add(c.deferred)
	for i, v := range net {
		if v != 0 {
			verb := "acquired but not released"
			if v < 0 {
				verb = "released more times than acquired"
			}
			c.violate(pos, c.eng.Pairs[i].Name+" "+verb+" on this path through "+c.name+
				": balance acquire/release pairs or annotate the function //twvet:allow lockcheck")
			return
		}
	}
}

// block evaluates a statement list.
func (c *checker) block(stmts []ast.Stmt, st state) state {
	for _, s := range stmts {
		if st.terminated {
			break
		}
		st = c.stmt(s, st)
	}
	return st
}

// tryAcquireCond recognizes a conditional-acquire condition: `mu.TryLock()`
// returns the pair index and true-branch polarity; `!mu.TryLock()` inverts
// it (the acquire lands on the false/fallthrough side).
func (c *checker) tryAcquireCond(cond ast.Expr) (idx int, onThen, ok bool) {
	e := ast.Unparen(cond)
	onThen = true
	if u, isNot := e.(*ast.UnaryExpr); isNot && u.Op == token.NOT {
		e = ast.Unparen(u.X)
		onThen = false
	}
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return 0, false, false
	}
	fn := analysis.CalleeFunc(c.pass.TypesInfo, call)
	if fn == nil {
		return 0, false, false
	}
	idx, ok = c.eng.tries[fn.FullName()]
	return idx, onThen, ok
}

// ifStmt evaluates an if statement.
func (c *checker) ifStmt(s *ast.IfStmt, st state) state {
	if s.Init != nil {
		st = c.stmt(s.Init, st)
	}
	c.scanExpr(s.Cond, st.b)
	thenB := st.b.clone()
	elseB := st.b.clone()
	if i, onThen, ok := c.tryAcquireCond(s.Cond); ok {
		// The try-acquire succeeded only on one side of the branch.
		if onThen {
			thenB[i]++
		} else {
			elseB[i]++
		}
	}
	thenSt := c.block(s.Body.List, state{b: thenB})
	elseSt := state{b: elseB}
	if s.Else != nil {
		elseSt = c.stmt(s.Else, elseSt)
	}
	return c.merge(s, []state{thenSt, elseSt})
}

// stmt evaluates one statement.
func (c *checker) stmt(s ast.Stmt, st state) state {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.scanExpr(e, st.b)
		}
		c.checkExit(st.b, s.Pos())
		st.terminated = true
		return st

	case *ast.DeferStmt:
		c.scanDefer(s.Call, st.b)
		return st

	case *ast.IfStmt:
		return c.ifStmt(s, st)

	case *ast.BlockStmt:
		return c.block(s.List, st)

	case *ast.ForStmt:
		if s.Init != nil {
			st = c.stmt(s.Init, st)
		}
		if s.Cond != nil {
			c.scanExpr(s.Cond, st.b)
		}
		c.loopBody(s.Body, s.Post, st.b)
		return st

	case *ast.RangeStmt:
		c.scanExpr(s.X, st.b)
		c.loopBody(s.Body, nil, st.b)
		return st

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return c.multiway(s, st)

	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, st)

	case *ast.BranchStmt:
		// break/continue leave the enclosing loop or switch arm; the
		// loop-neutrality check in loopBody covers the loop cases.
		st.terminated = true
		return st

	default:
		// Assignments, expression statements, declarations, go, send:
		// count every call in source order; net effect is order-free.
		c.scanNode(s, st.b)
		if exits(c.pass, s) {
			st.terminated = true
		}
		return st
	}
}

// merge joins the branch states of a conditional: surviving branches
// must agree on every resource balance.
func (c *checker) merge(at ast.Node, branches []state) state {
	var alive []state
	for _, b := range branches {
		if !b.terminated {
			alive = append(alive, b)
		}
	}
	if len(alive) == 0 {
		return state{terminated: true}
	}
	first := alive[0]
	for _, b := range alive[1:] {
		if !b.b.equal(first.b) {
			c.violate(at.Pos(),
				"paths through this branch disagree on paired acquire/release balance in "+c.name+
					": balance each arm or annotate the function //twvet:allow lockcheck")
			break
		}
	}
	return first
}

// multiway evaluates switch/type-switch/select as parallel branches.
func (c *checker) multiway(s ast.Stmt, st state) state {
	var body *ast.BlockStmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			st = c.stmt(s.Init, st)
		}
		if s.Tag != nil {
			c.scanExpr(s.Tag, st.b)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st = c.stmt(s.Init, st)
		}
		c.scanNode(s.Assign, st.b)
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	branches := []state{}
	for _, clause := range body.List {
		var stmts []ast.Stmt
		switch cl := clause.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			for _, e := range cl.List {
				c.scanExpr(e, st.b)
			}
			stmts = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			} else {
				c.scanNode(cl.Comm, st.b)
			}
			stmts = cl.Body
		}
		branches = append(branches, c.block(stmts, state{b: st.b.clone()}))
	}
	if !hasDefault {
		// No default: the zero-delta fallthrough path exists too.
		branches = append(branches, state{b: st.b.clone()})
	}
	return c.merge(s, branches)
}

// loopBody requires a loop body to be resource-neutral per iteration.
// It evaluates from the loop-entry balance so returns inside the body are
// checked against the true path balance (entry + iteration so far).
func (c *checker) loopBody(body *ast.BlockStmt, post ast.Stmt, entry bal) {
	st := c.block(body.List, state{b: entry.clone()})
	if post != nil && !st.terminated {
		st = c.stmt(post, st)
	}
	if !st.terminated {
		for i := range st.b {
			if v := st.b[i] - entry[i]; v != 0 {
				verb := "acquires"
				if v < 0 {
					verb = "over-releases"
				}
				c.violate(body.Pos(),
					"loop iteration "+verb+" "+c.eng.Pairs[i].Name+
						" without balancing it: balance the body or annotate the function //twvet:allow lockcheck")
				return
			}
		}
	}
}

// scanDefer registers a deferred call's deltas (including those inside a
// deferred closure) to be credited at every exit reached after this
// statement. Argument expressions evaluate immediately, so their deltas
// land in the current balance.
func (c *checker) scanDefer(call *ast.CallExpr, now bal) {
	for _, arg := range call.Args {
		c.scanExpr(arg, now)
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		c.scanCalls(lit.Body, c.deferred, false)
		return
	}
	if fn := analysis.CalleeFunc(c.pass.TypesInfo, call); fn != nil {
		c.addDelta(fn, c.deferred)
	}
}

// addDelta accumulates the callee's per-pair delta from the pair table.
// Conditional acquires count only via tryAcquireCond branches.
func (c *checker) addDelta(fn *types.Func, into bal) {
	full := fn.FullName()
	if i, ok := c.eng.acquires[full]; ok {
		into[i]++
	} else if i, ok := c.eng.releases[full]; ok {
		into[i]--
	}
}

// scanExpr accumulates the deltas of every paired call in an expression.
// Function literals are skipped: their bodies execute elsewhere and are
// checked as their own scopes.
func (c *checker) scanExpr(e ast.Expr, into bal) {
	if e == nil {
		return
	}
	c.scanCalls(e, into, true)
}

// scanNode accumulates deltas over any node.
func (c *checker) scanNode(n ast.Node, into bal) {
	if n == nil {
		return
	}
	c.scanCalls(n, into, true)
}

// scanCalls walks n counting paired calls. When skipFuncLits is set,
// closure bodies are not descended into.
func (c *checker) scanCalls(n ast.Node, into bal, skipFuncLits bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && skipFuncLits {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := analysis.CalleeFunc(c.pass.TypesInfo, call); fn != nil {
			c.addDelta(fn, into)
		}
		return true
	})
}

// exits reports whether the statement unconditionally leaves the
// function: panic, os.Exit, log.Fatal*.
func exits(pass *analysis.Pass, s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		if _, isUse := pass.TypesInfo.Uses[id].(*types.Builtin); isUse || pass.TypesInfo.Uses[id] == nil {
			return true
		}
	}
	if fn := analysis.CalleeFunc(pass.TypesInfo, call); fn != nil {
		full := fn.FullName()
		switch full {
		case "os.Exit", "log.Fatal", "log.Fatalf", "log.Fatalln", "runtime.Goexit":
			return true
		}
	}
	return false
}

// hasGoto reports whether the body contains a goto statement.
func hasGoto(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if b, ok := n.(*ast.BranchStmt); ok && b.Tok.String() == "goto" {
			found = true
			return false
		}
		return !found
	})
	return found
}
