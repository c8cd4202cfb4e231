// Package replaypure enforces the continuation runtime's window-purity
// contract (sim.Stepped). Every in-tree object runs its operations as
// resumable frames: Begin executes the invocation window, each
// Frame.Step call executes one access window, and the engine — not a
// per-process goroutine — grants the windows. Two structural rules keep
// each frame machine the paper's automaton, one base-object step per
// grant:
//
//   - The invocation window carries no footprint: Begin bodies must not
//     declare accesses (Proc.Access, or any base window method such as
//     ReadW/WriteW/CompareAndSwapW). A Begin that touched shared state
//     would hide a base-object step inside the invocation, where the
//     scheduler cannot interleave it and POR sees no footprint.
//     Proc.Observe IS allowed: local state that steers the operation
//     (e.g. a transaction's active flag) is folded into the fingerprint
//     in the invocation window.
//
//   - Continuation code never performs the scheduler handshake: Begin
//     and Step bodies must not call Proc.Exec. Their windows are
//     already granted by the dispatch loop; Exec is the handshake of a
//     hand-written blocking Apply and panics outside one.
//
// The analyzer identifies continuation methods by shape: a method named
// Begin taking (*Proc, Invocation) with three results, or a method
// named Step taking a single *Proc with two results. Methods that match
// the shape but are not sim continuations may exempt themselves with
// //slx:nostepwindow and a reason.
package replaypure

import (
	"go/ast"

	"repro/internal/lint/analysis"
	"repro/internal/lint/pragma"
)

// Analyzer is the replaypure check.
var Analyzer = &analysis.Analyzer{
	Name: "replaypure",
	Doc:  "continuation Begin windows must declare no accesses, and Begin/Step must never call the blocking Exec handshake",
	Run:  run,
}

// method kinds recognized by contKind.
const (
	notCont = iota
	beginMethod
	stepMethod
)

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Recv == nil {
				continue
			}
			kind := contKind(fn)
			if kind == notCont {
				continue
			}
			if pragma.Has(fn.Doc, "nostepwindow") {
				continue
			}
			checkBody(pass, fn, kind)
		}
	}
	return nil
}

// checkBody scans one continuation method body for contract violations.
func checkBody(pass *analysis.Pass, fn *ast.FuncDecl, kind int) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isExecCall(call) {
			pass.Reportf(call.Pos(), "continuation %s calls Exec: its windows are granted by the dispatch loop, so the blocking handshake would panic; perform the access with a window method (ReadW, WriteW, ...) or Proc.Access instead (or annotate the method //slx:nostepwindow)", fn.Name.Name)
			return true
		}
		if kind != beginMethod {
			return true
		}
		if isAccessCall(call) {
			pass.Reportf(call.Pos(), "Begin declares a footprint in the invocation window: the invocation window performs no access, so move this into the frame's first Step (or annotate the method //slx:nostepwindow)")
		} else if name, ok := windowCall(call); ok {
			pass.Reportf(call.Pos(), "Begin calls the window method %s in the invocation window: the invocation window performs no access, so move this into the frame's first Step (or annotate the method //slx:nostepwindow)", name)
		}
		return true
	})
}

// contKind classifies a method declaration: Stepped.Begin-shaped,
// Frame.Step-shaped, or neither. Shapes are matched structurally —
// name, arity and a *Proc first parameter — because the analyzer runs
// without type information.
func contKind(fn *ast.FuncDecl) int {
	params := fn.Type.Params.List
	results := 0
	if fn.Type.Results != nil {
		for _, f := range fn.Type.Results.List {
			if n := len(f.Names); n > 0 {
				results += n
			} else {
				results++
			}
		}
	}
	args := 0
	for _, f := range params {
		if n := len(f.Names); n > 0 {
			args += n
		} else {
			args++
		}
	}
	switch fn.Name.Name {
	case "Begin":
		if args == 2 && results == 3 && len(params) > 0 && isProcPtr(params[0].Type) {
			return beginMethod
		}
	case "Step":
		if args == 1 && results == 2 && len(params) == 1 && isProcPtr(params[0].Type) {
			return stepMethod
		}
	}
	return notCont
}

// isProcPtr matches *Proc, *sim.Proc and *run.Proc parameter types.
func isProcPtr(t ast.Expr) bool {
	star, ok := t.(*ast.StarExpr)
	if !ok {
		return false
	}
	switch x := star.X.(type) {
	case *ast.Ident:
		return x.Name == "Proc"
	case *ast.SelectorExpr:
		return x.Sel.Name == "Proc"
	}
	return false
}

// isExecCall matches the blocking handshake `.Exec(desc, func(){...})`.
func isExecCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Exec" && len(call.Args) == 2
}

// isAccessCall matches the footprint declaration form: a .Access
// method call (sim.Proc).
func isAccessCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Access"
}

// windowMethods is the base-object window-form vocabulary: every one
// declares a footprint for the window it runs in.
var windowMethods = map[string]bool{
	"ReadW": true, "WriteW": true, "CompareAndSwapW": true, "SwapW": true,
	"TestAndSetW": true, "ResetW": true, "AddW": true, "UpdateW": true,
	"ScanW": true, "FlushW": true,
}

// windowCall matches calls of base window methods (method name ending
// in W from the known vocabulary) and returns the method name.
func windowCall(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !windowMethods[sel.Sel.Name] {
		return "", false
	}
	return sel.Sel.Name, true
}
