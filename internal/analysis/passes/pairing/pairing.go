// Package pairing enforces the paper's paired-primitive discipline
// (Table 1: tw_set_trap has tw_clear_trap, every arm has a disarm) on the
// Go reproduction's resource pairs: mem trap reference counts and their
// chunk summary, mach instruction-breakpoint arm/clear, and result-cache
// claims.
//
// The path-balance core (internal/analysis/passes/pathbal) is structural:
// within one function, every path — fallthrough, early return, both arms
// of a conditional, each loop iteration — must acquire and release each
// resource the same number of times, with deferred releases credited at
// every exit.
//
// On top of it, this pass is inter-procedural through modular facts: a
// function whose every exit hands the caller the same surplus of a true
// ownership resource (a result-cache claim) exports a TransfersOwnership
// fact, and a
// function that consumes such a resource through its parameters or
// receiver exports ReleasesResource. Callers — in this package or, via
// serialized fact files, in importing packages — then account for those
// calls without any annotation. The //twvet:transfer escape hatch remains
// for shapes the engine cannot prove (closure-carried releases, loop
// acquires into collections, counter-style pairs); an annotation on a
// function the engine can prove is reported so it gets deleted.
//
// Functions that are themselves pairing primitives (they implement an
// acquire or release in the table) are exempt: their bodies are the
// transfer mechanism, not clients of it.
package pairing

import (
	"go/ast"
	"go/types"
	"sort"

	"tapeworm/internal/analysis"
	"tapeworm/internal/analysis/passes/pathbal"
)

// Analyzer is the paired set/clear balance pass.
var Analyzer = &analysis.Analyzer{
	Name:      "pairing",
	Doc:       "paired acquire/release primitives must balance on every path through a function, with ownership transfers proven by inter-procedural facts (//twvet:transfer for shapes the engine cannot prove)",
	FactTypes: []analysis.Fact{(*TransfersOwnership)(nil), (*ReleasesResource)(nil)},
	Run:       run,
}

// TransfersOwnership is the fact exported for a function whose every
// normal exit hands the caller a consistent surplus of transferable
// resources (per-pair deltas, all positive): calling it acquires.
type TransfersOwnership struct {
	Deltas map[string]int
}

// AFact marks the type as a serializable fact.
func (*TransfersOwnership) AFact() {}

// ReleasesResource is the dual fact: a function that consumes resources
// owned by its arguments or receiver (per-pair deltas, all negative):
// calling it releases.
type ReleasesResource struct {
	Deltas map[string]int
}

// AFact marks the type as a serializable fact.
func (*ReleasesResource) AFact() {}

// pairs is the resource table. Transferable marks true ownership pairs —
// a value the caller holds and must later release — which are the only
// ones fact inference applies to: counter-like pairs (trap refcounts,
// breakpoint arms) would propagate every intentional imbalance up the
// call graph.
var pairs = []pathbal.Pair{
	{
		Name:     "mem trap refcount",
		Acquires: []string{"(*tapeworm/internal/mem.Controller).AddTrapRef"},
		Releases: []string{"(*tapeworm/internal/mem.Controller).ReleaseTrapRef"},
	},
	{
		// The refcount summary (mem: refChunk per chunk of trapRef
		// words): a 0→nonzero increment recorded in the summary must be
		// balanced by a nonzero→0 decrement, or the summary diverges from
		// the word-level refs it indexes and a bulk trap clear skips a
		// chunk that still holds references.
		Name:     "trap refcount chunk summary",
		Acquires: []string{"(*tapeworm/internal/mem.Phys).refChunkInc"},
		Releases: []string{"(*tapeworm/internal/mem.Phys).refChunkDec"},
	},
	{
		Name:     "mach breakpoint arm",
		Acquires: []string{"(*tapeworm/internal/mach.Machine).SetBreakpoint"},
		Releases: []string{"(*tapeworm/internal/mach.Machine).ClearBreakpoint"},
	},
	{
		// A result-cache claim must be released on every path (hit, fresh
		// simulation, and error alike); Release without a prior Complete
		// abandons the digest so single-flight followers can take over.
		// Complete is a value publish, not the release, so it is not in
		// the release set.
		Name:         "result cache claim",
		Acquires:     []string{"(*tapeworm/internal/resultcache.Store).Acquire"},
		Releases:     []string{"(*tapeworm/internal/resultcache.Claim).Release"},
		Transferable: true,
	},
}

// candidate is one function declaration under analysis.
type candidate struct {
	fn        *ast.FuncDecl
	obj       *types.Func
	dirs      *analysis.Directives
	annotated bool
	res       pathbal.Result
}

func run(pass *analysis.Pass) error {
	eng := pathbal.New(pairs)

	// local holds the per-function delta vectors inferred for this
	// package; the Lookup hook folds them — and imported facts — into
	// every call-site evaluation.
	local := map[*types.Func][]int{}
	eng.Lookup = func(fn *types.Func) []int {
		if d, ok := local[fn]; ok {
			return d
		}
		if fn.Pkg() == nil || fn.Pkg() == pass.Pkg {
			return nil
		}
		var t TransfersOwnership
		if pass.ImportObjectFact(fn, &t) {
			return vectorOf(t.Deltas)
		}
		var r ReleasesResource
		if pass.ImportObjectFact(fn, &r) {
			return vectorOf(r.Deltas)
		}
		return nil
	}

	var cands []*candidate
	for _, file := range pass.Files {
		if pass.IsTestFile(file) {
			continue
		}
		dirs := pass.FileDirectives(file)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fn.Name].(*types.Func)
			if obj != nil && eng.Primitive(obj.FullName()) {
				continue // the pair's own implementation
			}
			cands = append(cands, &candidate{
				fn:        fn,
				obj:       obj,
				dirs:      dirs,
				annotated: dirs.FuncDirective(fn, "transfer", ""),
			})
		}
	}

	// Fact inference fixpoint: re-evaluate every function until the
	// inferred vectors stabilize (call chains here are shallow; the cap
	// guards against oscillation). Annotated functions never export —
	// the annotation asserts an ownership shape the engine must not
	// propagate (closure releases, collection adoption).
	for iter := 0; iter < 5; iter++ {
		changed := false
		for _, c := range cands {
			c.res = eng.Check(pass, c.fn)
			if c.annotated || c.obj == nil {
				continue
			}
			v := inferVector(c.res, c.obj)
			if !vecEqual(local[c.obj], v) {
				changed = true
				if v == nil {
					delete(local, c.obj)
				} else {
					local[c.obj] = v
				}
			}
		}
		if !changed {
			break
		}
	}

	for obj, v := range local {
		deltas := deltasOf(v)
		if positive(v) {
			pass.ExportObjectFact(obj, &TransfersOwnership{Deltas: deltas})
		} else {
			pass.ExportObjectFact(obj, &ReleasesResource{Deltas: deltas})
		}
	}

	for _, c := range cands {
		if c.annotated {
			if c.res.Clean() {
				// Balanced function: the annotation suppresses nothing.
				// Left unmarked, the stale-directive scan reports it.
				continue
			}
			c.dirs.MarkFunc(c.fn, "transfer", "")
			if c.obj != nil && inferVector(c.res, c.obj) != nil {
				pass.Reportf(c.fn.Pos(),
					"ownership transfer by %s is provable inter-procedurally: delete the //twvet:transfer directive and let the facts engine carry it",
					c.fn.Name.Name)
			}
			continue
		}
		if _, proven := local[c.obj]; proven {
			continue // consistent transfer: exported as a fact, not a finding
		}
		if len(c.res.Violations) > 0 {
			v := c.res.Violations[0] // one report per function keeps output readable
			pass.Reportf(v.Pos, "%s", v.Message)
		}
	}
	return nil
}

// inferVector decides whether a check result describes a provable
// ownership transfer and returns its per-pair delta vector, or nil.
// Eligibility: no structural violations (merge conflicts, loop
// imbalance), every nonzero exit identical (zero exits — error or
// disabled paths — are fine: the caller's failed-acquire idiom discounts
// them), deltas confined to transferable pairs with a uniform sign, and a
// signature that can actually carry the ownership: a non-error result for
// acquires, a receiver or parameter for releases.
func inferVector(res pathbal.Result, obj *types.Func) []int {
	if res.Skipped || len(res.Exits) == 0 {
		return nil
	}
	for _, v := range res.Violations {
		if v.Kind != pathbal.ExitImbalance {
			return nil
		}
	}
	var vec []int
	for _, exit := range res.Exits {
		if allZero(exit) {
			continue
		}
		if vec == nil {
			vec = exit
			continue
		}
		if !vecEqual(vec, exit) {
			return nil
		}
	}
	if vec == nil {
		return nil
	}
	sign := 0
	for i, v := range vec {
		if v == 0 {
			continue
		}
		if !pairs[i].Transferable {
			return nil
		}
		s := 1
		if v < 0 {
			s = -1
		}
		if sign == 0 {
			sign = s
		} else if sign != s {
			return nil
		}
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if sign > 0 {
		// Ownership enters the caller through a returned value; a
		// receiver alone cannot carry an acquire (that shape — filling a
		// structure in place — stays behind //twvet:transfer).
		carried := false
		for i := 0; i < sig.Results().Len(); i++ {
			if !isErrorType(sig.Results().At(i).Type()) {
				carried = true
				break
			}
		}
		if !carried {
			return nil
		}
	} else {
		// Ownership leaves through any held reference.
		if sig.Recv() == nil && sig.Params().Len() == 0 {
			return nil
		}
	}
	return vec
}

func allZero(v []int) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

func vecEqual(a, b []int) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func positive(v []int) bool {
	for _, x := range v {
		if x > 0 {
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// deltasOf converts an index vector to the name-keyed map serialized in
// facts (stable across pair-table reorderings).
func deltasOf(v []int) map[string]int {
	m := map[string]int{}
	for i, x := range v {
		if x != 0 {
			m[pairs[i].Name] = x
		}
	}
	return m
}

// vectorOf converts a fact's name-keyed deltas back to an index vector.
func vectorOf(deltas map[string]int) []int {
	v := make([]int, len(pairs))
	names := make([]string, 0, len(deltas))
	for n := range deltas {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for i := range pairs {
			if pairs[i].Name == n {
				v[i] = deltas[n]
			}
		}
	}
	return v
}
