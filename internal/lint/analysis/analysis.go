// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis API: an Analyzer inspects one
// type-checked package through a Pass and reports Diagnostics. The
// slxvet suite (internal/lint) is written against this surface so that
// swapping the driver for the real go/analysis multichecker, should the
// x/tools dependency ever be vendored, is a mechanical change — the
// analyzer bodies already speak its vocabulary (Pass.Fset, Pass.Files,
// Pass.TypesInfo, Pass.Reportf).
//
// The driver (Load + Run) shells out to `go list -export` for package
// metadata and export data, parses the target packages from source, and
// type-checks them with the standard library's gc importer — no
// third-party code anywhere on the path.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one static check: a name, a documentation string, and a
// Run function invoked once per package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics. It must be a valid Go
	// identifier.
	Name string
	// Doc is the one-paragraph contract the analyzer enforces.
	Doc string
	// Run inspects the package and reports findings through the Pass.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps token positions of Files to source locations.
	Fset *token.FileSet
	// Files are the package's parsed non-test sources, with comments.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's expression and identifier facts.
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Filename: position.Filename,
		Line:     position.Line,
		Column:   position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned by resolved file location.
type Diagnostic struct {
	Analyzer string
	Filename string
	Line     int
	Column   int
	Message  string
}

// String renders the diagnostic in the conventional
// file:line:col: message (analyzer) form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Filename, d.Line, d.Column, d.Message, d.Analyzer)
}

// Run applies every analyzer to every package and returns the combined
// diagnostics sorted by file, line, column, analyzer name, then
// message, so the output is deterministic.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				report:    report,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags, nil
}
