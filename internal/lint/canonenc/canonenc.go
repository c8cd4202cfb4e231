// Package canonenc enforces the canonical-encoding contract of digest
// and fingerprint code: state digests must be built from the one
// canonical encoder in internal/history (the Fingerprinter, over
// AppendCanonical and the DigestSeed/DigestByte/DigestWord family),
// never from fmt renderings (%v space-joins composite elements, so
// []string{"x y"} and []string{"x","y"} collide), string joins
// (variable content can shift component boundaries), hash/fnv, or
// hand-rolled FNV arithmetic (four divergent copies of the constants
// were consolidated once already).
//
// Scope — the code whose output feeds cache keys and state dedup:
//
//   - the digest homes, whole-file: internal/history/digest.go (the
//     encoder itself), internal/safety/digest.go (the monitor
//     digests), internal/sim/fingerprint.go (the configuration
//     fingerprint's fold order), internal/base/mem.go (Mem.Fold, every
//     object's state fold);
//   - every StateDigest or Fingerprint method body, anywhere;
//   - every function whose name mentions Digest or Canonical.
//
// The one legitimate home of the raw FNV constants carries
// //slx:rawdigest on its declaration.
package canonenc

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/pragma"
)

// Analyzer is the canonenc check.
var Analyzer = &analysis.Analyzer{
	Name: "canonenc",
	Doc:  "digest/fingerprint code must use the canonical injective encoder, not fmt/%v, string joins, or raw FNV arithmetic",
	Run:  run,
}

// scopedFiles are the whole-file digest homes, matched by path suffix.
var scopedFiles = []string{
	"internal/history/digest.go",
	"internal/safety/digest.go",
	"internal/sim/fingerprint.go",
	"internal/base/mem.go",
}

// fnvConstants are the FNV offset bases and primes (64- and 32-bit)
// whose literal appearance marks hand-rolled digest arithmetic.
var fnvConstants = map[uint64]bool{
	14695981039346656037: true, // FNV-1a 64-bit offset basis
	1099511628211:        true, // FNV 64-bit prime
	2166136261:           true, // FNV-1a 32-bit offset basis
	16777619:             true, // FNV 32-bit prime
}

// forbiddenFmt are the fmt rendering entry points that defeat
// injectivity.
var forbiddenFmt = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true,
	"Fprintf": true, "Appendf": true, "Append": true, "Appendln": true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		filename := pass.Fset.Position(file.Pos()).Filename
		if fileScoped(filename) {
			for _, decl := range file.Decls {
				if pragma.Has(declDoc(decl), "rawdigest") {
					continue
				}
				inspect(pass, decl)
			}
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !funcScoped(fn) {
				continue
			}
			if pragma.Has(fn.Doc, "rawdigest") {
				continue
			}
			inspect(pass, fn.Body)
		}
	}
	return nil
}

// fileScoped reports whether the file is one of the whole-file digest
// homes.
func fileScoped(filename string) bool {
	slash := filepath.ToSlash(filename)
	for _, s := range scopedFiles {
		if strings.HasSuffix(slash, s) {
			return true
		}
	}
	return false
}

// funcScoped reports whether a function's body is digest code by name:
// the StateDigest/Fingerprint hook methods, and anything calling
// itself a digest or canonical encoder.
func funcScoped(fn *ast.FuncDecl) bool {
	name := fn.Name.Name
	if fn.Recv != nil && (name == "StateDigest" || name == "Fingerprint") {
		return true
	}
	lower := strings.ToLower(name)
	return strings.Contains(lower, "digest") || strings.Contains(lower, "canonical")
}

// declDoc returns a declaration's doc comment group.
func declDoc(decl ast.Decl) *ast.CommentGroup {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		return d.Doc
	case *ast.GenDecl:
		return d.Doc
	}
	return nil
}

// inspect walks one scoped region and reports every forbidden
// construct.
func inspect(pass *analysis.Pass, node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, n)
		case *ast.SelectorExpr:
			if pkgOf(pass.TypesInfo, n) == "hash/fnv" {
				pass.Reportf(n.Pos(), "hash/fnv in digest code: fold through history.DigestSeed/DigestByte/DigestWord so every digest shares one FNV home")
				return false
			}
		case *ast.BasicLit:
			if n.Kind == token.INT && isFNVConstant(n.Value) {
				pass.Reportf(n.Pos(), "raw FNV constant in digest code: use history.DigestSeed/DigestByte/DigestWord (their one home carries //slx:rawdigest)")
			}
		}
		return true
	})
}

// checkCall flags fmt renderings and string joins.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	switch pkgOf(pass.TypesInfo, sel) {
	case "fmt":
		if forbiddenFmt[sel.Sel.Name] {
			pass.Reportf(call.Pos(), "fmt.%s in digest code: fmt renderings are not injective (%%v space-joins composites); encode with history.AppendCanonical", sel.Sel.Name)
		}
	case "strings":
		if sel.Sel.Name == "Join" {
			pass.Reportf(call.Pos(), "strings.Join in digest code: joined content can shift component boundaries; fold length-delimited parts with the history.Digest* primitives")
		}
	}
}

// pkgOf resolves the package path of a selector's qualifier, or "".
func pkgOf(info *types.Info, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// isFNVConstant parses an integer literal and tests it against the
// known FNV offsets and primes.
func isFNVConstant(lit string) bool {
	v, err := strconv.ParseUint(strings.ReplaceAll(lit, "_", ""), 0, 64)
	if err != nil {
		return false
	}
	return fnvConstants[v]
}
