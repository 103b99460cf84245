package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
}

// listPackages shells out to `go list -export -deps -json` for the given
// patterns, returning every package in the dependency closure, by import
// path, with its compiled export-data file. -export builds through the
// local build cache, so this works without any network or pre-installed
// archives.
func listPackages(dir string, patterns []string) (map[string]*listedPackage, error) {
	args := []string{"list", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly,Standard", "--"}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list -export: %v\n%s", err, stderr.String())
	}
	byPath := map[string]*listedPackage{}
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list -export: decoding: %v", err)
		}
		byPath[p.ImportPath] = &p
	}
	return byPath, nil
}

// LoadedPackage is one source-type-checked package ready for analysis.
type LoadedPackage struct {
	PkgPath   string
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// Load type-checks the packages matched by patterns (e.g. "./...") from
// source, in import-path order, resolving their imports through export
// data produced by `go list -export`. Only the matched packages are
// loaded, and only their non-test files: the invariants constrain
// simulator code, not test assertions.
func Load(dir string, patterns ...string) ([]*LoadedPackage, error) {
	listed, err := listPackages(dir, patterns)
	if err != nil {
		return nil, err
	}
	var roots []*listedPackage
	for _, p := range listed {
		if !p.DepOnly && !p.Standard && len(p.GoFiles) > 0 {
			roots = append(roots, p)
		}
	}
	slices.SortFunc(roots, func(a, b *listedPackage) int { return strings.Compare(a.ImportPath, b.ImportPath) })
	var out []*LoadedPackage
	for _, p := range roots {
		paths := make([]string, len(p.GoFiles))
		for i, name := range p.GoFiles {
			paths[i] = filepath.Join(p.Dir, name)
		}
		fset := token.NewFileSet()
		files, err := parseFiles(fset, paths)
		if err != nil {
			return nil, err
		}
		lp, err := typeCheck(p.ImportPath, fset, files, listed)
		if err != nil {
			return nil, err
		}
		out = append(out, lp)
	}
	return out, nil
}

// LoadFiles type-checks one ad-hoc package from the given source files.
// The analysistest harness uses this for testdata packages, which are
// invisible to `go list`; their imports are still resolved through
// export data produced by `go list -export` run in dir (so testdata may
// import real module packages and the standard library).
func LoadFiles(dir, pkgPath string, filenames []string) (*LoadedPackage, error) {
	fset := token.NewFileSet()
	files, err := parseFiles(fset, filenames)
	if err != nil {
		return nil, err
	}
	imports := map[string]bool{}
	for _, f := range files {
		for _, imp := range f.Imports {
			if p, err := ImportPathOf(imp); err == nil && p != "unsafe" {
				imports[p] = true
			}
		}
	}
	listed := map[string]*listedPackage{}
	if len(imports) > 0 {
		patterns := make([]string, 0, len(imports))
		for p := range imports {
			patterns = append(patterns, p)
		}
		slices.Sort(patterns)
		if listed, err = listPackages(dir, patterns); err != nil {
			return nil, err
		}
	}
	return typeCheck(pkgPath, fset, files, listed)
}

// parseFiles parses the Go files at paths, with comments (directives live
// there).
func parseFiles(fset *token.FileSet, paths []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// typeCheck type-checks the parsed files as package pkgPath, resolving
// imports through the export data of listed (the gc importer handles
// "unsafe" itself).
func typeCheck(pkgPath string, fset *token.FileSet, files []*ast.File, listed map[string]*listedPackage) (*LoadedPackage, error) {
	info := newTypesInfo()
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			p := listed[path]
			if p == nil || p.Export == "" {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(p.Export)
		}),
		Sizes: types.SizesFor("gc", build.Default.GOARCH),
	}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", pkgPath, err)
	}
	return &LoadedPackage{PkgPath: pkgPath, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}, nil
}

// Run loads the packages matched by patterns and applies every analyzer
// to each, with stale-directive detection, returning the diagnostics in
// package order.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var all []Diagnostic
	for _, pkg := range pkgs {
		diags, err := Analyze(pkg, analyzers, true)
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
	}
	return all, nil
}
