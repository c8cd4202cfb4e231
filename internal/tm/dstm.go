package tm

import (
	"repro/internal/base"
	"repro/internal/history"
	"repro/internal/sim"
)

// Transaction statuses for the DSTM descriptor.
const (
	txActive    = "active"
	txCommitted = "committed"
	txAborted   = "aborted"
)

// orec is a per-variable ownership record: the variable's value is
// rec.newVal if the owner committed, rec.oldVal otherwise.
type orec struct {
	owner  *base.CAS // the owner's descriptor
	oldVal history.Value
	newVal history.Value
}

// DSTM is a simplified obstruction-free TM in the style of Herlihy,
// Luchangco, Moir and Scherer (the paper's reference [21]): per-variable
// ownership records, visible reads, and abort-the-other conflict
// resolution. A transaction running without step contention steals every
// ownership record it needs and commits ((1,1)-freedom); two contenders
// can abort each other forever, so unlike GlobalCAS it is not lock-free —
// the deterministic lockstep test exhibits the mutual-abort livelock.
//
// Opacity: acquiring a variable first aborts any active owner, so between
// two of a transaction's operations no other transaction can have touched
// its variables without aborting it first; every operation begins by
// checking the own status and returns A once aborted. Values resolve
// through the previous owner's status, one level deep, because each
// acquisition snapshots the resolved current value into oldVal.
//
// All of its state lives in its memory: an ownership record per
// variable, allocated on first use; a descriptor per start — its status
// word, a CAS cell and the transaction's linearization point; and each
// process's current descriptor in a local cell.
//
//slx:nofingerprint ownership records and descriptors are compared by identity: content-equal states diverge
//slx:norecover descriptors and records are modeled durable; a crashed transaction stays active until aborted
//slx:nofootprint the footprints are declared, but opting in switches POR on for the dstm explorations, which is its own change
type DSTM struct {
	base.Mem
	local []*base.Local // each process's current descriptor (*base.CAS, nil outside a transaction); index 0 unused
}

// NewDSTM creates the implementation for n processes.
func NewDSTM(n int) *DSTM {
	t := &DSTM{local: make([]*base.Local, n+1)}
	for p := 1; p <= n; p++ {
		t.local[p] = base.NewLocal(&t.Mem, (*base.CAS)(nil))
	}
	return t
}

// Apply implements sim.Object.
func (t *DSTM) Apply(p *sim.Proc, inv sim.Invocation) history.Value {
	return sim.ApplyFrames(t, p, inv)
}

// orecFor returns v's ownership record, allocating it on first use.
func (t *DSTM) orecFor(v string) *base.CAS {
	return base.Lazy(&t.Mem, v, func() *base.CAS { return base.NewCAS(&t.Mem, "orec:"+v, (*orec)(nil)) })
}

// Begin implements sim.Stepped. "start" takes no base-object step: it
// allocates a fresh descriptor in the invocation window. "read" and
// "write" allocate the variable's ownership record on first use, also
// in the invocation window, and answer A there when the process has no
// transaction (its status is read only when there is a descriptor);
// otherwise they run the acquire loop (dstmAccessFrame). "tryC" drops
// the descriptor in the invocation window, then commits with one CAS
// of its status word.
func (t *DSTM) Begin(p *sim.Proc, inv sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	l := t.local[p.ID()]
	desc := l.Get().(*base.CAS)
	switch inv.Op {
	case history.TMStart:
		l.Set(base.NewCAS(&t.Mem, "tx", txActive))
		return nil, history.OK, sim.StepDone
	case history.TMRead, history.TMWrite:
		oc := t.orecFor(inv.Obj)
		if desc == nil {
			return nil, history.Abort, sim.StepDone
		}
		f := &dstmAccessFrame{mine: desc, oc: oc, resp: history.OK}
		if inv.Op == history.TMWrite {
			f.write, f.val = true, inv.Arg
		}
		return f, nil, sim.StepPaused
	case history.TMTryC:
		if desc == nil {
			return nil, history.Abort, sim.StepDone
		}
		l.Set((*base.CAS)(nil))
		return dstmCommitFrame{desc}, nil, sim.StepPaused
	default:
		return nil, history.Abort, sim.StepDone
	}
}

// dstmCommitFrame is an in-flight tryC: one CAS of the status word from
// active to committed. It never mutates, so Fork returns the receiver.
type dstmCommitFrame struct{ d *base.CAS }

// Step implements sim.Frame.
func (f dstmCommitFrame) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	if f.d.CompareAndSwapW(p, txActive, txCommitted) {
		return history.Commit, sim.StepDone
	}
	return history.Abort, sim.StepDone
}

// Fork implements sim.Frame.
func (f dstmCommitFrame) Fork() sim.Frame { return f }

// Frame phases for dstmAccessFrame.pc. Each constant names the access
// the next Step performs.
const (
	dsActive      = iota // read the own status: still active? (top of the loop)
	dsReadOrec           // read the variable's ownership record
	dsOwnerStatus        // read the current owner's status
	dsAbortOwner         // CAS the active owner's status to aborted
	dsResolve            // read the previous owner's status again, resolving its value
	dsCAS                // CAS the record to the one prepared in next
	dsValidate           // read the own status after acquiring: still active?
)

// dstmAccessFrame is an in-flight read or write: the acquire loop,
// which takes ownership of the variable for the process's transaction.
// Each round checks the own status, then reads the ownership record.
// An owned record is re-accessed: a read validates the own status and
// returns the record's new value; a write CASes in a record with the
// new value, then validates. A record of an active owner first aborts
// that owner; any other record is stolen — the previous owner's status
// resolves the current value (committed: newVal, otherwise oldVal), and
// a CAS installs a record owned by this transaction holding that value
// (writes: the written value as newVal), then validates. Any failed CAS
// starts a new round. The response, once validation passes, is the
// value read (reads) or OK (writes); a failed status check answers A.
type dstmAccessFrame struct {
	mine  *base.CAS // the own descriptor
	oc    *base.CAS
	write bool
	val   history.Value // the written value (writes)
	pc    int
	cur   *orec // the record the current round read
	next  *orec // the record the next dsCAS installs
	resp  history.Value
}

// Step implements sim.Frame.
func (f *dstmAccessFrame) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	switch f.pc {
	case dsActive:
		if f.mine.ReadW(p) != txActive {
			return history.Abort, sim.StepDone
		}
		f.pc = dsReadOrec
	case dsReadOrec:
		f.cur, _ = f.oc.ReadW(p).(*orec)
		switch {
		case f.cur != nil && f.cur.owner == f.mine:
			// Re-access of an owned variable. Validate the own status
			// before exposing the value: if a competitor aborted us, the
			// value would join an inconsistent read set (opacity for
			// aborted transactions).
			if f.write {
				f.next = &orec{owner: f.mine, oldVal: f.cur.oldVal, newVal: f.val}
				f.pc = dsCAS
			} else {
				f.resp = f.cur.newVal
				f.pc = dsValidate
			}
		case f.cur != nil:
			f.pc = dsOwnerStatus
		default:
			// No record yet: the initial value 0, with no owner to
			// resolve it through.
			f.steal(0)
		}
	case dsOwnerStatus:
		if f.cur.owner.ReadW(p) == txActive {
			// Obstruction-free conflict resolution: abort the owner.
			f.pc = dsAbortOwner
		} else {
			f.pc = dsResolve
		}
	case dsAbortOwner:
		f.cur.owner.CompareAndSwapW(p, txActive, txAborted)
		f.pc = dsActive
	case dsResolve:
		resolved := f.cur.oldVal
		if f.cur.owner.ReadW(p) == txCommitted {
			resolved = f.cur.newVal
		}
		f.steal(resolved)
	case dsCAS:
		if f.oc.CompareAndSwapW(p, f.cur, f.next) {
			f.pc = dsValidate
		} else {
			f.pc = dsActive
		}
	case dsValidate:
		// Post-acquire validation: if our status still reads active
		// here, no competitor has stolen any of our records up to this
		// instant (stealing aborts first), so every value we have
		// returned is simultaneously current — a consistent snapshot.
		if f.mine.ReadW(p) != txActive {
			return history.Abort, sim.StepDone
		}
		return f.resp, sim.StepDone
	}
	return nil, sim.StepPaused
}

// steal prepares the CAS that takes the record over, keeping resolved
// as its old value (and, for reads, as the response).
func (f *dstmAccessFrame) steal(resolved history.Value) {
	newVal := resolved
	if f.write {
		newVal = f.val
	} else {
		f.resp = resolved
	}
	f.next = &orec{owner: f.mine, oldVal: resolved, newVal: newVal}
	f.pc = dsCAS
}

// Fork implements sim.Frame.
func (f *dstmAccessFrame) Fork() sim.Frame {
	c := *f
	return &c
}
