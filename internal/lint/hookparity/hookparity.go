// Package hookparity enforces the engine's hook-parity contract: a
// shared-object implementation (a type with an Apply step method) that
// opts into any of the simulator's optional capability hooks —
// sim.Footprinted (partial-order reduction), sim.Fingerprintable
// (state caching), sim.Snapshottable (incremental execution),
// sim.Recoverable (crash–recovery exploration) — must either implement
// all four or carry an explicit exemption pragma per missing hook:
//
//	//slx:nofootprint   POR must treat every step as conflicting
//	//slx:nofingerprint content fingerprints are unsound (pointer identity)
//	//slx:nosnapshot    exploration must replay from the root
//	//slx:norecover     every cell is durable; recovery is a bare re-spawn
//
// Recoverable is a method pair: a type with CrashVolatile but no
// RecoverFrame (or vice versa) is reported unconditionally, because the
// runtime's interface assertion silently fails on half a pair and the
// object would explore under -recoveries with no crash semantics at
// all.
//
// The runtime composes silently: an object missing a hook simply loses
// the optimization, and the parity tests only cover objects someone
// remembered to register. This check turns "forgot the hook" from a
// silent de-optimization (or, for a wrongly-omitted annotation, an
// undocumented soundness argument) into a compile-time diagnostic.
//
// Hook detection is structural (method names and shapes), so the
// analyzer needs no reference to internal/sim itself and applies
// equally to objects written against the slx/run facade.
//
// The same analyzer keeps every object in one form. Outside
// internal/sim, which owns the blocking-Apply adapter, a type whose
// Apply takes the simulator's *Proc and Invocation must be written as
// a frame machine — it has a Begin method (sim.Stepped) — and its Apply
// must be exactly the derived one-liner
//
//	return sim.ApplyFrames(recv, p, inv) // or run.ApplyFrames
//
// so no hand-written blocking twin can drift from the frames.
//
// It also keeps each object's state in one store: a type outside
// internal/base embedding base.Mem declares no Snapshot or Restore (the
// promoted pair is its hook), its Fingerprint and CrashVolatile are
// exactly recv.Fold(f) and recv.Wipe(), and only its package's
// functions returning it write to, delete from or take the address of
// its fields (the embedded Mem excepted), so its state lives in cells.
//
// Test files are not analyzed: hand-written blocking fixtures,
// hand-written hooks and run.ObjectFunc stay available to tests and
// users.
package hookparity

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/pragma"
)

// Analyzer is the hookparity check.
var Analyzer = &analysis.Analyzer{
	Name: "hookparity",
	Doc:  "object types opting into one engine capability hook must implement the rest or carry //slx:no* exemptions, every object is a Begin machine whose Apply is the derived ApplyFrames call, and types embedding base.Mem keep their state in its cells with derived hooks",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	checkMemState(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gen.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Assign.IsValid() {
					continue
				}
				doc := ts.Doc
				if doc == nil {
					doc = gen.Doc
				}
				checkType(pass, ts, doc)
			}
		}
	}
	return nil
}

// checkType applies the parity rule to one declared type.
func checkType(pass *analysis.Pass, ts *ast.TypeSpec, doc *ast.CommentGroup) {
	obj, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
	if !ok {
		return
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return
	}
	if _, ok := named.Underlying().(*types.Interface); ok {
		return
	}
	ms := types.NewMethodSet(types.NewPointer(named))

	if !hasApply(ms) {
		return
	}
	checkOneForm(pass, ts, ms)
	footprinted := hasFootprints(ms)
	fingerprintable := hasFingerprint(ms)
	snapshottable := hasSnapshot(ms) && hasRestore(ms)
	crashVolatile := hasCrashVolatile(ms)
	recoverFrame := hasRecoverFrame(ms)
	recoverable := crashVolatile && recoverFrame

	// Half a Recoverable is always wrong: the runtime asserts the whole
	// interface, so the lone method is dead code and crashes wipe
	// nothing (or recovery runs no routine) without a diagnostic.
	if crashVolatile != recoverFrame {
		have, miss := "CrashVolatile", "RecoverFrame() Frame"
		if recoverFrame {
			have, miss = "RecoverFrame", "CrashVolatile()"
		}
		pass.Reportf(ts.Pos(), "%s implements %s but not %s: sim.Recoverable is asserted as a pair, so the half-implemented hook is silently ignored — complete the pair or remove it", ts.Name.Name, have, miss)
	}

	if !footprinted && !fingerprintable && !snapshottable && !recoverable {
		// The type opts into nothing: a plain Object, outside the
		// parity contract.
		return
	}

	if !footprinted && !pragma.Has(doc, "nofootprint") {
		pass.Reportf(ts.Pos(), "%s opts into engine hooks but not sim.Footprinted: add Footprints() bool (accesses declared via Proc.Access) or annotate the type //slx:nofootprint with why POR must treat its steps as conflicting", ts.Name.Name)
	}
	if !fingerprintable && !pragma.Has(doc, "nofingerprint") {
		pass.Reportf(ts.Pos(), "%s opts into engine hooks but not sim.Fingerprintable: add Fingerprint encoding all shared state or annotate the type //slx:nofingerprint with why content fingerprints are unsound for it (e.g. pointer identity)", ts.Name.Name)
	}
	if !snapshottable && !pragma.Has(doc, "nosnapshot") {
		pass.Reportf(ts.Pos(), "%s opts into engine hooks but not sim.Snapshottable: add Snapshot/Restore or annotate the type //slx:nosnapshot with why incremental execution must fall back to from-root replay", ts.Name.Name)
	}
	if !recoverable && !pragma.Has(doc, "norecover") {
		pass.Reportf(ts.Pos(), "%s opts into engine hooks but not sim.Recoverable: add CrashVolatile/RecoverFrame stating what a crash wipes and how a process rejoins, or annotate the type //slx:norecover with why a bare re-spawn is sound (typically: every cell is durable)", ts.Name.Name)
	}
}

// checkOneForm reports a simulator object that is not written once, as
// frames: one without a Begin machine, or one whose Apply is anything
// but the derived ApplyFrames call. internal/sim owns the adapter, and
// a promoted Apply is checked where it is declared.
func checkOneForm(pass *analysis.Pass, ts *ast.TypeSpec, ms *types.MethodSet) {
	sel := ms.Lookup(pass.Pkg, "Apply")
	if inPkg(pass.Pkg, "internal/sim") || sel == nil || len(sel.Index()) > 1 {
		return
	}
	sig := sel.Obj().Type().(*types.Signature)
	if !isSimType(sig.Params().At(0).Type(), "Proc") || !isSimType(sig.Params().At(1).Type(), "Invocation") {
		return
	}
	if !hasBegin(ms) {
		pass.Reportf(ts.Pos(), "%s has a blocking Apply but no Begin machine: write its operations as sim.Stepped frames and derive Apply with sim.ApplyFrames (hand-written blocking objects belong in tests, or in a run.ObjectFunc)", ts.Name.Name)
		return
	}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && pass.TypesInfo.Defs[fd.Name] == sel.Obj() && !derivedApply(pass, fd) {
				pass.Reportf(fd.Pos(), "%s.Apply must be the one line `return sim.ApplyFrames(recv, p, inv)` (or run.ApplyFrames): the frame machine is the object's only form, and a hand-written blocking twin can drift from it", ts.Name.Name)
			}
		}
	}
}

// inPkg reports whether pkg is the repository package at path.
func inPkg(pkg *types.Package, path string) bool {
	return pkg != nil && strings.HasSuffix(pkg.Path(), path)
}

// isSimType reports whether t, or the type t points to, is
// internal/sim's type of that name (which the slx/run facade aliases).
func isSimType(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == name && inPkg(n.Obj().Pkg(), "internal/sim")
}

// derivedApply reports whether decl's body is exactly
// return sim.ApplyFrames(recv, p, inv) (or run.ApplyFrames), passing
// the method's own receiver and parameters in order.
func derivedApply(pass *analysis.Pass, decl *ast.FuncDecl) bool {
	var names []string
	for _, f := range append(decl.Recv.List, decl.Type.Params.List...) {
		for _, n := range f.Names {
			names = append(names, n.Name)
		}
	}
	if len(names) != 3 || len(decl.Body.List) != 1 {
		return false
	}
	ret, ok := decl.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	call, ok := ret.Results[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	fun, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
	if !ok || fn.Name() != "ApplyFrames" || !inPkg(fn.Pkg(), "internal/sim") && !inPkg(fn.Pkg(), "slx/run") {
		return false
	}
	return types.ExprString(call) == types.ExprString(fun)+"("+strings.Join(names, ", ")+")"
}

// signature returns the named method's signature from the method set,
// or nil.
func signature(ms *types.MethodSet, name string) *types.Signature {
	for i := 0; i < ms.Len(); i++ {
		f := ms.At(i).Obj()
		if f.Name() == name {
			if sig, ok := f.Type().(*types.Signature); ok {
				return sig
			}
		}
	}
	return nil
}

// hasApply matches the sim.Object step method shape:
// Apply(p *Proc, inv Invocation) Value.
func hasApply(ms *types.MethodSet) bool {
	sig := signature(ms, "Apply")
	return sig != nil && sig.Params().Len() == 2 && sig.Results().Len() == 1
}

// hasBegin matches the sim.Stepped machine shape:
// Begin(p *Proc, inv Invocation) (Frame, Value, StepStatus).
func hasBegin(ms *types.MethodSet) bool {
	sig := signature(ms, "Begin")
	return sig != nil && sig.Params().Len() == 2 && sig.Results().Len() == 3
}

// hasFootprints matches sim.Footprinted: Footprints() bool.
func hasFootprints(ms *types.MethodSet) bool {
	sig := signature(ms, "Footprints")
	if sig == nil || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return false
	}
	basic, ok := sig.Results().At(0).Type().(*types.Basic)
	return ok && basic.Kind() == types.Bool
}

// hasFingerprint matches the sim.Fingerprintable hook shape
// Fingerprint(*Fingerprinter): one parameter, no results, parameter
// type named Fingerprinter.
func hasFingerprint(ms *types.MethodSet) bool {
	sig := signature(ms, "Fingerprint")
	if sig == nil || sig.Params().Len() != 1 || sig.Results().Len() != 0 {
		return false
	}
	t := sig.Params().At(0).Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Name() == "Fingerprinter"
}

// hasSnapshot matches Snapshot() any.
func hasSnapshot(ms *types.MethodSet) bool {
	sig := signature(ms, "Snapshot")
	return sig != nil && sig.Params().Len() == 0 && sig.Results().Len() == 1
}

// hasRestore matches Restore(any).
func hasRestore(ms *types.MethodSet) bool {
	sig := signature(ms, "Restore")
	return sig != nil && sig.Params().Len() == 1 && sig.Results().Len() == 0
}

// hasCrashVolatile matches CrashVolatile().
func hasCrashVolatile(ms *types.MethodSet) bool {
	sig := signature(ms, "CrashVolatile")
	return sig != nil && sig.Params().Len() == 0 && sig.Results().Len() == 0
}

// hasRecoverFrame matches RecoverFrame() Frame.
func hasRecoverFrame(ms *types.MethodSet) bool {
	sig := signature(ms, "RecoverFrame")
	return sig != nil && sig.Params().Len() == 0 && sig.Results().Len() == 1
}
