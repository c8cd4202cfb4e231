package sim

import "repro/internal/history"

// ApplyOnly wraps o so that only its Apply executes it: the wrapper
// hides Stepped, Snapshottable and SessionGated, so the runtime runs
// every operation through its blocking-Apply adapter and a Session over
// it takes the from-root strategy. For a frame machine, Apply is its
// frames through ApplyFrames, one Proc.Exec window per Step. It
// forwards the three hooks the runtime consults — Footprinted,
// Fingerprintable and Recoverable — so the explored tree, the pruning,
// the fingerprints and the crash semantics stay those of o. Forced
// replay execution (slx.WithReplayExecution) uses it to reach the
// from-root reference, which never calls Snapshot, Restore or
// Frame.Fork.
func ApplyOnly(o Object) Object {
	a := &applyOnly{o: o}
	a.rec, _ = o.(Recoverable)
	if fp, ok := o.(Fingerprintable); ok {
		// The hook's mere presence switches fingerprinting on, so it
		// gets its own type.
		return &applyOnlyFP{applyOnly: a, fp: fp}
	}
	return a
}

// applyOnly is ApplyOnly's wrapper for objects without Fingerprintable.
// A wrapped object without Footprinted or Recoverable answers
// Footprints false and recovers with no routine and nothing volatile,
// exactly how the runtime treats an object without the hook.
//
//slx:nofingerprint forwarded by applyOnlyFP when the wrapped object has it
//slx:nosnapshot hiding the snapshot hook is the wrapper's purpose
type applyOnly struct {
	o   Object
	rec Recoverable
}

// Apply implements Object.
func (a *applyOnly) Apply(p *Proc, inv Invocation) history.Value { return a.o.Apply(p, inv) }

// Footprints implements Footprinted.
func (a *applyOnly) Footprints() bool {
	f, ok := a.o.(Footprinted)
	return ok && f.Footprints()
}

// CrashVolatile implements Recoverable.
func (a *applyOnly) CrashVolatile() {
	if a.rec != nil {
		a.rec.CrashVolatile()
	}
}

// RecoverFrame implements Recoverable.
func (a *applyOnly) RecoverFrame() Frame {
	if a.rec == nil {
		return nil
	}
	return a.rec.RecoverFrame()
}

// applyOnlyFP is ApplyOnly's wrapper for Fingerprintable objects.
//
//slx:nosnapshot hiding the snapshot hook is the wrapper's purpose
type applyOnlyFP struct {
	*applyOnly
	fp Fingerprintable
}

// Fingerprint implements Fingerprintable.
func (a *applyOnlyFP) Fingerprint(f *Fingerprinter) { a.fp.Fingerprint(f) }
