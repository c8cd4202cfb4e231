package hookparity

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// checkMemState applies the one-store rules (see the package doc) to
// the package's types that embed internal/base's Mem.
func checkMemState(pass *analysis.Pass) {
	if inPkg(pass.Pkg, "internal/base") {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Recv != nil {
				if owner := memOwner(pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)); owner != nil {
					checkHookBody(pass, fd, owner.Obj().Name())
				}
			}
			checkFieldWrites(pass, fd)
		}
	}
}

// memOwner returns t, or the type t points to, when it is a named
// struct embedding base.Mem; otherwise nil.
func memOwner(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if st, ok := n.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			if isMemField(st.Field(i)) {
				return n
			}
		}
	}
	return nil
}

// isMemField reports whether f is an embedded base.Mem.
func isMemField(f *types.Var) bool {
	n, ok := f.Type().(*types.Named)
	return ok && f.Embedded() && n.Obj().Name() == "Mem" && inPkg(n.Obj().Pkg(), "internal/base")
}

// checkHookBody reports a snapshot hook declared over the promoted one,
// and a Fingerprint or CrashVolatile whose body is not the derived
// call.
func checkHookBody(pass *analysis.Pass, fd *ast.FuncDecl, owner string) {
	var call string
	switch fd.Name.Name {
	case "Snapshot", "Restore":
		pass.Reportf(fd.Pos(), "%s embeds base.Mem and must not declare %s: the promoted Mem.Snapshot/Restore pair is its snapshot hook, and every piece of state belongs in a cell", owner, fd.Name.Name)
		return
	case "Fingerprint":
		call = "Fold(f)"
		if ps := fd.Type.Params.List; len(ps) == 1 && len(ps[0].Names) == 1 {
			call = "Fold(" + ps[0].Names[0].Name + ")"
		}
	case "CrashVolatile":
		call = "Wipe()"
	default:
		return
	}
	if recv := fd.Recv.List[0].Names; len(recv) == 1 && len(fd.Body.List) == 1 {
		if stmt, ok := fd.Body.List[0].(*ast.ExprStmt); ok {
			if got := types.ExprString(stmt.X); got == recv[0].Name+"."+call || got == recv[0].Name+".Mem."+call {
				return
			}
		}
	}
	pass.Reportf(fd.Pos(), "%s embeds base.Mem: its %s must be exactly `recv.%s`, derived from the cells its snapshot captures", owner, fd.Name.Name, call)
}

// checkFieldWrites reports every assignment to, increment of, delete
// from or address taken of a field of a Mem-embedding type (or an
// element of one), unless fd returns that type.
func checkFieldWrites(pass *analysis.Pass, fd *ast.FuncDecl) {
	constructs := map[*types.Named]bool{}
	if fd.Type.Results != nil {
		for _, r := range fd.Type.Results.List {
			if n := memOwner(pass.TypesInfo.TypeOf(r.Type)); n != nil {
				constructs[n] = true
			}
		}
	}
	report := func(e ast.Expr, what string) {
		if sel, owner := ownerField(pass, e); sel != nil && !constructs[owner] {
			pass.Reportf(e.Pos(), "%s %s field %s outside a constructor: %s embeds base.Mem, so its fields are fixed once its constructor returns — keep the state in a cell (base.NewLocal, or a base object)", what, owner.Obj().Name(), sel.Sel.Name, owner.Obj().Name())
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				report(lhs, "assignment to")
			}
		case *ast.IncDecStmt:
			report(n.X, "increment of")
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				report(n.X, "address of")
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && len(n.Args) > 0 {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
					report(n.Args[0], "delete from")
				}
			}
		}
		return true
	})
}

// ownerField walks e's selector and index chain down to a field
// selected on a Mem-embedding type, other than the embedded Mem, and
// returns that selector and the type; otherwise nil.
func ownerField(pass *analysis.Pass, e ast.Expr) (*ast.SelectorExpr, *types.Named) {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			sel := pass.TypesInfo.Selections[x]
			if sel == nil || sel.Kind() != types.FieldVal {
				return nil, nil
			}
			if owner := memOwner(sel.Recv()); owner != nil {
				if isMemField(owner.Underlying().(*types.Struct).Field(sel.Index()[0])) {
					return nil, nil
				}
				return x, owner
			}
			e = x.X
		default:
			return nil, nil
		}
	}
}
