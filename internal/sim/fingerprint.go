package sim

import (
	"repro/internal/history"
)

// Fingerprinter is the canonical state encoder (history.Fingerprinter):
// Fingerprintable objects write their shared state into it, and the
// runtime folds each process's control state after it.
type Fingerprinter = history.Fingerprinter

// Fingerprintable is the opt-in state-fingerprint hook: an Object
// implementing it promises that
//
//  1. Fingerprint writes a canonical encoding of ALL state shared
//     between processes (for implementations built from internal/base
//     objects: the one line recv.Fold(f), which folds every cell of
//     the object's base.Mem in allocation order), such that two
//     instances with equal encodings behave identically under
//     identical future schedules, and
//  2. every value Apply reads from shared state into process-local
//     variables is declared to the executing process via Proc.Observe
//     (base-object read operations do this automatically), so the
//     runtime can fold mid-operation local state into the fingerprint.
//
// Implementations whose behavior depends on pointer identity — e.g. a
// compare-and-swap over freshly allocated records, where two
// content-equal states can still differ on which allocation the CAS
// will accept — must NOT implement the hook: content encodings cannot
// distinguish such states, and a fingerprint that equates them would
// let exploration prune subtrees with genuinely different futures.
// Values passed to Fingerprinter.Val must be encodable by content:
// scalars and strings, composed through structs, arrays, slices, maps,
// and interfaces, with at most one top-level pointer to a composite
// (which is dereferenced). Everything else — a nested non-nil pointer
// (identity, not content), a top-level pointer to a scalar, channels,
// functions, and types implementing fmt.Stringer, fmt.Formatter, or
// error — poisons the fingerprint: the run then yields no
// Result.Fingerprint, same as a non-fingerprintable object, rather
// than producing a nondeterministic or colliding one (the symptom is
// WithStateCache reporting zero hits). Objects without the hook simply
// yield no Result.Fingerprint and exploration's state cache skips
// them.
type Fingerprintable interface {
	Object
	// Fingerprint writes the object's canonical shared state into f.
	Fingerprint(f *Fingerprinter)
}

// fingerprint computes the canonical state fingerprint of the current
// configuration: the object's declared state, then each process's
// record word (procWord). It is called between step windows, when no
// process is executing. ok is false when some folded value poisoned the
// digest (see Fingerprinter.Val). It reuses the runtime's encoder, which
// no window holds between steps.
func (r *runtime) fingerprint() (fp uint64, ok bool) {
	for id := 1; id <= r.cfg.Procs; id++ {
		if !r.procWord(id) {
			return 0, false
		}
	}
	f := &r.fpEnc
	f.Restart(history.DigestSeed())
	r.cfg.Object.(Fingerprintable).Fingerprint(f)
	for id := 1; id <= r.cfg.Procs; id++ {
		f.Uint64(r.ps[id].word)
	}
	return f.Sum(), !f.Poisoned()
}

// procWord brings process id's record word up to date, folding the
// record when a decision of the process changed it since the last fold:
// status (ready/idle/blocked/crashed, which also encodes the crash
// set), completed-operation count, steps taken within the pending
// operation (its program counter), the running digest of values it
// observed within the pending operation (its mid-operation local
// state), the pending invocation, and the crash–recovery state. The
// recovery epoch and the invoked-operation count separate
// configurations whose histories consumed different invocations through
// crashed operations (the environment's position depends on
// invocations, not completions), and the recovering flag separates a
// recovery routine about to take its first step from a process between
// operations. It reports false, leaving the word stale, when the
// record's values poison the fold.
func (r *runtime) procWord(id int) bool {
	ps := &r.ps[id]
	if ps.fresh {
		return true
	}
	f := &r.fpEnc
	f.Restart(history.DigestSeed())
	f.Int(int(ps.status))
	f.Int(ps.completed)
	f.Int(ps.opSteps)
	f.Uint64(ps.obs)
	f.Bool(ps.hasPend)
	if ps.hasPend {
		f.Str(ps.pending.Op)
		f.Str(ps.pending.Obj)
		f.Val(ps.pending.Arg)
	}
	f.Int(ps.recEpoch)
	f.Bool(ps.recovering)
	f.Int(ps.invoked)
	if f.Poisoned() {
		return false
	}
	ps.word, ps.fresh = f.Sum(), true
	return true
}
