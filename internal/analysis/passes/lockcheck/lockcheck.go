// Package lockcheck applies the pathbal path-balance core to mutex
// discipline: every sync.Mutex/RWMutex Lock must be balanced by an Unlock
// (and RLock by RUnlock) on every path through a function, with deferred
// unlocks credited at every exit and TryLock modeled as a conditional
// acquire — `if mu.TryLock() { ... }` holds the lock only inside the
// success branch.
//
// The pass is scoped to the packages whose locking the repo's concurrency
// story rests on: the scheduler worker pool, the single-flight result
// cache, the experiment-level checkpoint/plan/profile caches, and the
// telemetry collector. Goroutine and closure bodies are checked as their
// own scopes (the scheduler's worker loop locks inside `go func`
// literals). A function that intentionally returns with a lock held
// declares so with //twvet:allow lockcheck in its doc comment.
package lockcheck

import (
	"go/ast"

	"tapeworm/internal/analysis"
	"tapeworm/internal/analysis/passes/pathbal"
)

// Analyzer is the mutex Lock/Unlock balance pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc:  "sync.Mutex/RWMutex Lock and Unlock must balance on every path, including defer credits and TryLock success branches",
	Run:  run,
}

// scopePkgs are the import-path suffixes whose lock discipline is
// checked; testdata opts in per-file with //twvet:scope lockcheck.
var scopePkgs = []string{
	"internal/sched",
	"internal/resultcache",
	"internal/experiment",
	"internal/telemetry",
}

var pairs = []pathbal.Pair{
	{
		Name:        "sync.Mutex lock",
		Acquires:    []string{"(*sync.Mutex).Lock"},
		Releases:    []string{"(*sync.Mutex).Unlock"},
		TryAcquires: []string{"(*sync.Mutex).TryLock"},
	},
	{
		Name:        "sync.RWMutex write lock",
		Acquires:    []string{"(*sync.RWMutex).Lock"},
		Releases:    []string{"(*sync.RWMutex).Unlock"},
		TryAcquires: []string{"(*sync.RWMutex).TryLock"},
	},
	{
		Name:        "sync.RWMutex read lock",
		Acquires:    []string{"(*sync.RWMutex).RLock"},
		Releases:    []string{"(*sync.RWMutex).RUnlock"},
		TryAcquires: []string{"(*sync.RWMutex).TryRLock"},
	},
}

func run(pass *analysis.Pass) error {
	inScope := pass.PathInScope(scopePkgs...)
	eng := pathbal.New(pairs)
	for _, file := range pass.Files {
		dirs := pass.FileDirectives(file)
		if !inScope && !dirs.Scoped("lockcheck") {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			// report emits the first violation of one checked scope unless
			// the function's doc excuses it.
			report := func(vs []pathbal.Violation) {
				if len(vs) > 0 && !dirs.FuncAllowed(fn, "lockcheck") {
					pass.Reportf(vs[0].Pos, "%s", vs[0].Message)
				}
			}
			report(eng.Check(pass, fn))
			// Closures run elsewhere (goroutine bodies, callbacks) and
			// must balance as their own scopes — except closures deferred
			// directly, whose unlocks pathbal already credits to the
			// enclosing function's exits.
			deferred := map[*ast.FuncLit]bool{}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if d, ok := n.(*ast.DeferStmt); ok {
					if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
						deferred[lit] = true
					}
				}
				return true
			})
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok && !deferred[lit] {
					report(eng.CheckBody(pass, "this function literal", lit.Body))
				}
				return true
			})
		}
	}
	return nil
}
