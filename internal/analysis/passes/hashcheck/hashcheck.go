// Package hashcheck guards the result cache's soundness boundary: a
// cached result is only valid if every semantically relevant field of an
// execution identity is folded into its digest. The content-addressed
// store (internal/resultcache) keys on canonical hashes of identity
// structs, so a field added to workload.Spec or
// core.Config but forgotten in HashInto would silently alias distinct
// configurations to one digest — a stale-cache miscomparison at runtime.
// This pass turns that into a lint failure.
//
// Two shapes are checked structurally, comparing a struct's field set
// against the fields its encoder consumes:
//
//   - every named struct type with a HashInto(*resultcache.Hasher) method
//     must consume each of its fields in that method;
//   - every function annotated //twvet:digest <TypeName> must consume
//     each field of that (same-package) type — this covers encoders that
//     are not methods: the experiment digest (runConfig → resultDigest)
//     and the gob wire forms (resultWire).
//
// A field deliberately excluded from an identity carries
// //twvet:nohash <reason> on its declaration line; a reason is required.
// Consumption counts selector reads through any value of the type
// (receiver, parameter, local) and keys of composite literals; an unkeyed
// composite literal consumes every field by construction.
package hashcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"tapeworm/internal/analysis"
)

// Analyzer is the digest-completeness pass.
var Analyzer = &analysis.Analyzer{
	Name: "hashcheck",
	Doc:  "every field of a hashed identity struct must be folded into its HashInto/encoder digest or carry //twvet:nohash <reason>",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	// Named struct types with a HashInto(*resultcache.Hasher) method.
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, ok := named.Underlying().(*types.Struct); !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			if m.Name() == "HashInto" && isHasherSig(m) {
				if decl := funcDecl(pass, m); decl != nil {
					checkEncoder(pass, decl, named, "HashInto digest of "+name)
				}
			}
		}
	}

	// Functions annotated //twvet:digest <TypeName>.
	for _, file := range pass.Files {
		dirs := pass.FileDirectives(file)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			for _, arg := range dirs.FuncDirectiveArgs(fn, "digest") {
				if arg == "" {
					pass.Reportf(fn.Pos(), "//twvet:digest directive on %s needs a type name", fn.Name.Name)
					continue
				}
				obj := scope.Lookup(arg)
				tn, ok := obj.(*types.TypeName)
				if !ok {
					pass.Reportf(fn.Pos(), "//twvet:digest %s on %s: no such type in this package", arg, fn.Name.Name)
					continue
				}
				named, ok := tn.Type().(*types.Named)
				if !ok {
					continue
				}
				if _, ok := named.Underlying().(*types.Struct); !ok {
					pass.Reportf(fn.Pos(), "//twvet:digest %s on %s: not a struct type", arg, fn.Name.Name)
					continue
				}
				checkEncoder(pass, fn, named, "digest function "+fn.Name.Name)
			}
		}
	}
	return nil
}

// isHasherSig reports a method signature of exactly one parameter,
// *resultcache.Hasher.
func isHasherSig(m *types.Func) bool {
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 1 {
		return false
	}
	ptr, ok := sig.Params().At(0).Type().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Name() != "Hasher" {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && strings.HasSuffix(pkg.Path(), "internal/resultcache")
}

// funcDecl finds the AST declaration of a method in the pass's files.
func funcDecl(pass *analysis.Pass, m *types.Func) *ast.FuncDecl {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && pass.TypesInfo.Defs[fn.Name] == m {
				return fn
			}
		}
	}
	return nil
}

// checkEncoder verifies the encoder function consumes every field of the
// identity struct, reporting unconsumed fields at their declarations.
func checkEncoder(pass *analysis.Pass, fn *ast.FuncDecl, named *types.Named, what string) {
	st := named.Underlying().(*types.Struct)
	consumed := consumedFields(pass, fn.Body, named)
	if len(consumed) == len(fields(st)) {
		return
	}
	declFile, structAST := structDecl(pass, named)
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if consumed[f.Name()] {
			continue
		}
		pos := fn.Pos()
		var dirs *analysis.Directives
		if structAST != nil {
			if fd := fieldNode(structAST, f.Name()); fd != nil {
				pos = fd.Pos()
				dirs = pass.FileDirectives(declFile)
				found, hasReason := dirs.NohashAt(fd)
				if found && hasReason {
					continue
				}
				if found {
					pass.Reportf(pos, "//twvet:nohash on %s.%s needs a reason", named.Obj().Name(), f.Name())
					continue
				}
			}
		}
		pass.Reportf(pos, "field %s.%s is not folded into the %s: hash it or annotate the field //twvet:nohash <reason>",
			named.Obj().Name(), f.Name(), what)
	}
}

// fields lists a struct's field names.
func fields(st *types.Struct) []string {
	out := make([]string, st.NumFields())
	for i := range out {
		out[i] = st.Field(i).Name()
	}
	return out
}

// consumedFields walks an encoder body and returns the names of named's
// fields it consumes: selector reads through any value of the type
// (promoted selections count their first hop) and composite-literal keys.
func consumedFields(pass *analysis.Pass, body *ast.BlockStmt, named *types.Named) map[string]bool {
	st := named.Underlying().(*types.Struct)
	consumed := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			sel, ok := pass.TypesInfo.Selections[n]
			if !ok || sel.Kind() != types.FieldVal {
				return true
			}
			if !recvIs(sel.Recv(), named) {
				return true
			}
			consumed[st.Field(sel.Index()[0]).Name()] = true
		case *ast.CompositeLit:
			t := pass.TypesInfo.Types[n].Type
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if t == nil || !recvIs(t, named) {
				return true
			}
			if len(n.Elts) == 0 {
				return true
			}
			if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
				// Unkeyed literal: the compiler requires every field.
				for _, f := range fields(st) {
					consumed[f] = true
				}
				return true
			}
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						consumed[id.Name] = true
					}
				}
			}
		}
		return true
	})
	return consumed
}

// recvIs reports whether t (possibly behind a pointer or alias) is the
// named type.
func recvIs(t types.Type, named *types.Named) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj() == named.Obj()
	}
	return false
}

// structDecl locates the AST of the named struct's declaration.
func structDecl(pass *analysis.Pass, named *types.Named) (*ast.File, *ast.StructType) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || pass.TypesInfo.Defs[ts.Name] != named.Obj() {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					return file, st
				}
			}
		}
	}
	return nil, nil
}

// fieldNode finds the ast.Field declaring the named field (embedded
// fields match their type name).
func fieldNode(st *ast.StructType, name string) *ast.Field {
	for _, f := range st.Fields.List {
		if len(f.Names) == 0 {
			// Embedded: the field name is the type's base name.
			t := f.Type
			if p, ok := t.(*ast.StarExpr); ok {
				t = p.X
			}
			switch t := t.(type) {
			case *ast.Ident:
				if t.Name == name {
					return f
				}
			case *ast.SelectorExpr:
				if t.Sel.Name == name {
					return f
				}
			}
			continue
		}
		for _, id := range f.Names {
			if id.Name == name {
				return f
			}
		}
	}
	return nil
}
