package repro_test

// Docs that stay true: every Go identifier or selector README.md and
// DESIGN.md cite in backticks must name something the module still
// declares, so a rename or a deletion cannot leave the prose behind.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// retiredNames are the names the prose cites as retired, each with the
// change that retired it (DESIGN.md tells the story).
var retiredNames = map[string]string{
	"Replaying":                       "the continuation runtime deleted the read-log rebuild this guard served",
	"TestExploreIncrementalStepRatio": "the continuation runtime made its step bound exact; TestExploreContinuationSteps pins it",
}

// moduleNames indexes what the module's Go sources declare.
type moduleNames struct {
	all      map[string]bool            // every declared name, locals included
	pkgs     map[string]map[string]bool // package name -> its top-level names
	members  map[string]map[string]bool // type name -> its fields and methods
	embeds   map[string][]string        // type name -> embedded type names
	stdlib   map[string]bool            // names of imported standard packages
	literals map[string]bool            // identifier-shaped string literals and tag names
}

func (m *moduleNames) add(set map[string]map[string]bool, key, name string) {
	if set[key] == nil {
		set[key] = map[string]bool{}
	}
	set[key][name] = true
	m.all[name] = true
}

// typeName is the name of the type expression e (pointers and
// qualifiers stripped), or "".
func typeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return typeName(t.X)
	case *ast.SelectorExpr:
		return t.Sel.Name
	case *ast.IndexExpr:
		return typeName(t.X)
	}
	return ""
}

var identRE = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)

// indexModule parses every Go file of the module (testdata and the
// separate slxbench module excluded).
func indexModule(t *testing.T) *moduleNames {
	t.Helper()
	m := &moduleNames{
		all:      map[string]bool{},
		pkgs:     map[string]map[string]bool{},
		members:  map[string]map[string]bool{},
		embeds:   map[string][]string{},
		stdlib:   map[string]bool{},
		literals: map[string]bool{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (name == "testdata" || name == "slxbench" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			m.all[name] = true
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		m.indexFile(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func (m *moduleNames) indexFile(f *ast.File) {
	pkg := f.Name.Name
	m.all[pkg] = true
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if !strings.HasPrefix(path, "repro") {
			m.stdlib[path[strings.LastIndex(path, "/")+1:]] = true
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				m.add(m.pkgs, pkg, d.Name.Name)
			} else {
				m.add(m.members, typeName(d.Recv.List[0].Type), d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					m.add(m.pkgs, pkg, s.Name.Name)
					if s.Assign.IsValid() {
						m.embeds[s.Name.Name] = append(m.embeds[s.Name.Name], typeName(s.Type))
					}
					m.indexType(s.Name.Name, s.Type)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						m.add(m.pkgs, pkg, n.Name)
					}
				}
			}
		}
	}
	// Locals, parameters, fields of anonymous structs and identifier-shaped
	// string literals (operation names, pragma directives, subcommands).
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Field:
			for _, id := range x.Names {
				m.all[id.Name] = true
			}
			if x.Tag != nil {
				tag, _ := strconv.Unquote(x.Tag.Value)
				if name, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ","); name != "" {
					m.literals[name] = true
				}
			}
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE {
				for _, e := range x.Lhs {
					if id, ok := e.(*ast.Ident); ok {
						m.all[id.Name] = true
					}
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{x.Key, x.Value} {
				if id, ok := e.(*ast.Ident); ok && x.Tok == token.DEFINE {
					m.all[id.Name] = true
				}
			}
		case *ast.ValueSpec:
			for _, id := range x.Names {
				m.all[id.Name] = true
			}
		case *ast.BasicLit:
			if x.Kind == token.STRING {
				if s, err := strconv.Unquote(x.Value); err == nil && identRE.MatchString(s) {
					m.literals[s] = true
				}
			}
		}
		return true
	})
}

// indexType records a declared type's fields, interface methods and
// embedded types.
func (m *moduleNames) indexType(name string, e ast.Expr) {
	var fields *ast.FieldList
	switch t := e.(type) {
	case *ast.StructType:
		fields = t.Fields
	case *ast.InterfaceType:
		fields = t.Methods
	default:
		return
	}
	for _, f := range fields.List {
		if len(f.Names) == 0 {
			m.embeds[name] = append(m.embeds[name], typeName(f.Type))
		}
		for _, id := range f.Names {
			m.add(m.members, name, id.Name)
		}
	}
}

// hasMember reports whether type typ (or a type it embeds or aliases)
// declares member.
func (m *moduleNames) hasMember(typ, member string, seen map[string]bool) bool {
	if seen[typ] {
		return false
	}
	seen[typ] = true
	if m.members[typ][member] {
		return true
	}
	for _, e := range m.embeds[typ] {
		if m.hasMember(e, member, seen) {
			return true
		}
	}
	return false
}

// anyMember reports whether some type declares member.
func (m *moduleNames) anyMember(member string) bool {
	for _, ms := range m.members {
		if ms[member] {
			return true
		}
	}
	return false
}

// resolves reports whether the cited name (an identifier or a
// selector) names something the module declares. A selector's head is
// a package, a type or any declared name; the rest are that package's
// top-level names, or the fields and methods of the type before them.
func (m *moduleNames) resolves(name string) bool {
	parts := strings.Split(name, ".")
	head := parts[0]
	if len(parts) == 1 {
		return m.all[head] || m.literals[head] || types.Universe.Lookup(head) != nil
	}
	typ := ""
	rest := parts[1:]
	switch {
	case m.pkgs[head] != nil:
		if !m.pkgs[head][rest[0]] {
			return false
		}
		typ, rest = rest[0], rest[1:]
	case m.members[head] != nil || m.embeds[head] != nil:
		typ = head
	case !m.all[head]:
		return false
	}
	for _, member := range rest {
		if typ != "" && !m.hasMember(typ, member, map[string]bool{}) {
			return false
		}
		if typ == "" && !m.anyMember(member) {
			return false
		}
		typ = member
		if m.members[typ] == nil && m.embeds[typ] == nil {
			typ = ""
		}
	}
	return true
}

var (
	fenceRE = regexp.MustCompile("(?s)```.*?```")
	spanRE  = regexp.MustCompile("`([^`\n]+)`")
	nameRE  = regexp.MustCompile(`^[A-Za-z][A-Za-z0-9]*(\.[A-Za-z][A-Za-z0-9]*)*(\(\))?$`)
)

// citedNames returns the Go identifiers and selectors a markdown file
// cites in backticks outside code blocks. File names and
// standard-library selectors are not Go names of the module; spans with
// an underscore are JSON keys, metric names or history notation.
func citedNames(t *testing.T, file string, stdlib map[string]bool) []string {
	t.Helper()
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, sm := range spanRE.FindAllStringSubmatch(fenceRE.ReplaceAllString(string(b), ""), -1) {
		span := strings.TrimSuffix(sm[1], "()")
		if !nameRE.MatchString(sm[1]) {
			continue
		}
		switch filepath.Ext(span) {
		case ".go", ".md", ".json", ".yml", ".sh":
			continue
		}
		if head, _, sel := strings.Cut(span, "."); sel && stdlib[head] {
			continue
		}
		names = append(names, span)
	}
	return names
}

// TestDocsCiteLiveNames resolves every Go name README.md and DESIGN.md
// cite against the module.
func TestDocsCiteLiveNames(t *testing.T) {
	m := indexModule(t)
	for _, file := range []string{"README.md", "DESIGN.md"} {
		for _, name := range citedNames(t, file, m.stdlib) {
			if _, ok := retiredNames[strings.Split(name, ".")[0]]; ok {
				continue
			}
			if !m.resolves(name) {
				t.Errorf("%s cites `%s`, which the module does not declare", file, name)
			}
		}
	}
	for name := range retiredNames {
		if m.all[name] || m.anyMember(name) {
			t.Errorf("%s is listed as retired but is declared again", name)
		}
	}
}
