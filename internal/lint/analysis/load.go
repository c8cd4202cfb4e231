package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// Package is one target package loaded for analysis: parsed from
// source and type-checked against the export data of its dependencies.
type Package struct {
	// PkgPath is the import path (or the fixture directory base for
	// LoadDir packages).
	PkgPath string
	// Fset positions every file in Files.
	Fset *token.FileSet
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the type-checker's facts for Files.
	Info *types.Info
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
}

// goList runs `go list -export -deps -json` in dir and decodes the
// package stream, plus a map from import path to export-data file.
// Export data for every listed package is built as a side effect, which
// is what lets the type checker import dependencies without compiling
// them itself.
func goList(dir string, patterns []string) ([]listPackage, map[string]string, error) {
	args := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("go list %v: %w\n%s", patterns, err, stderr.String())
	}
	var pkgs []listPackage
	exports := make(map[string]string)
	dec := json.NewDecoder(&stdout)
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list %v: decoding output: %w", patterns, err)
		}
		pkgs = append(pkgs, p)
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return pkgs, exports, nil
}

// ModuleRoot resolves the root directory of the main module containing
// dir.
func ModuleRoot(dir string) (string, error) {
	cmd := exec.Command("go", "list", "-m", "-f", "{{.Dir}}")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go list -m: %w", err)
	}
	return string(bytes.TrimSpace(out)), nil
}

// Load loads and type-checks the packages matching patterns, resolved
// relative to dir (typically the module root). Only non-test sources
// are parsed and analyzed: the soundness contracts slxvet enforces
// bind implementation code, and test-only fixtures are exercised by
// the runtime parity suites instead.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, exports, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var pkgs []*Package
	for _, p := range listed {
		if p.DepOnly || p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		asts, err := parseFiles(fset, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		pkg, err := typeCheck(fset, imp, p.ImportPath, asts)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].PkgPath < pkgs[j].PkgPath })
	return pkgs, nil
}

// LoadDir loads the single package rooted at fixtureDir — a directory
// that need not be part of any module's package graph (analysistest
// fixtures live under testdata, which go list never matches). Imports
// are resolved through moduleDir, so fixtures may import standard
// library and module packages alike.
func LoadDir(moduleDir, fixtureDir string) (*Package, error) {
	entries, err := os.ReadDir(fixtureDir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", fixtureDir)
	}
	sort.Strings(files)

	// The parsed files' imports go to one go list invocation, which
	// produces export data for all of them.
	fset := token.NewFileSet()
	asts, err := parseFiles(fset, fixtureDir, files)
	if err != nil {
		return nil, err
	}
	importSet := make(map[string]bool)
	for _, f := range asts {
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return nil, err
			}
			importSet[p] = true
		}
	}
	exports := make(map[string]string)
	if len(importSet) > 0 {
		var paths []string
		for p := range importSet {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		if _, exports, err = goList(moduleDir, paths); err != nil {
			return nil, err
		}
	}
	imp := exportImporter(fset, exports)
	pkgPath := filepath.Base(fixtureDir)
	return typeCheck(fset, imp, pkgPath, asts)
}

// exportImporter builds a types.Importer that reads the gc export data
// files produced by `go list -export`.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// parseFiles parses the named files of dir, with comments.
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var asts []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		asts = append(asts, f)
	}
	return asts, nil
}

func typeCheck(fset *token.FileSet, imp types.Importer, pkgPath string, asts []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkgPath, fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", pkgPath, err)
	}
	return &Package{
		PkgPath: pkgPath,
		Fset:    fset,
		Files:   asts,
		Types:   tpkg,
		Info:    info,
	}, nil
}
