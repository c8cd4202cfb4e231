package tm

import (
	"fmt"

	"repro/internal/base"
	"repro/internal/history"
	"repro/internal/sim"
)

// DurableTM is GlobalCAS extended with crash–recovery: a write-ahead
// commit log makes every commit decision durable before it takes
// effect. tryC follows the discipline
//
//	write commit intent {prev, next} (volatile) → flush (durable)
//	→ CAS the central memory → clear intent → flush the clear
//
// and the recovery routine of a crashed process redoes its durable
// intent with a prev-pointer guard (memState records are freshly
// allocated and never reused, so the redo CAS succeeds exactly when the
// crashed commit had not taken effect — the transaction then commits
// during recovery, invisibly to the crashed process, or vanishes).
//
// Durable state: the central CAS and the flushed halves of the commit
// logs. Volatile state: the log caches and every process-local
// transaction context — a crash wipes all contexts, so transactions
// live at the crash observe inactive contexts and abort, and a
// recovered process must start a fresh transaction (TxnLoop issues a
// fresh start after a recover event).
//
//slx:nofingerprint CAS compares *memState pointers: content-equal snapshots still differ (ABA)
type DurableTM struct {
	base.Mem
	c     *base.CAS
	logs  []*base.DurableRegister // indexed by 1-based proc id
	local txContexts
}

// commitIntent is one durable commit record, immutable once stored.
type commitIntent struct {
	prev, next *memState
}

// NewDurableTM creates the implementation for n processes.
func NewDurableTM(n int) *DurableTM {
	t := &DurableTM{logs: make([]*base.DurableRegister, n+1)}
	t.c = base.NewCAS(&t.Mem, "C", &memState{version: 1})
	for p := 1; p <= n; p++ {
		t.logs[p] = base.NewDurableRegister(&t.Mem, fmt.Sprintf("commitlog.%d", p), nil)
	}
	t.local = newTxContexts(&t.Mem, n)
	return t
}

// Footprints implements sim.Footprinted: cross-process state is the
// central CAS and the commit logs, each declaring its accesses.
func (t *DurableTM) Footprints() bool { return true }

// CrashVolatile implements sim.Recoverable: the log caches revert to
// their flushed values and every transaction context is wiped (local
// contexts are volatile memory; a live transaction finds its context
// inactive and aborts).
func (t *DurableTM) CrashVolatile() { t.Wipe() }

// RecoverFrame implements sim.Recoverable.
func (t *DurableTM) RecoverFrame() sim.Frame { return &dtmRecFrame{t: t} }

// Apply implements sim.Object.
func (t *DurableTM) Apply(p *sim.Proc, inv sim.Invocation) history.Value {
	return sim.ApplyFrames(t, p, inv)
}

// Begin implements sim.Stepped: start, read and write match GlobalCAS's
// shapes; tryC takes the active-flag branch in the invocation window and
// then runs the write-ahead commit (dtmCommitFrame).
func (t *DurableTM) Begin(p *sim.Proc, inv sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	id := p.ID()
	switch inv.Op {
	case history.TMStart:
		return &txStartFrame{c: t.c, ctx: t.local[id]}, nil, sim.StepPaused
	case history.TMTryC:
		active := t.local.get(id).active
		p.Observe(active)
		if !active {
			return nil, history.Abort, sim.StepDone
		}
		l := t.local.update(id, func(l *txCtx) { l.active = false })
		return &dtmCommitFrame{t: t, in: &commitIntent{prev: l.snapshot, next: l.commitState()}}, nil, sim.StepPaused
	case history.TMRead:
		return nil, t.local.read(id, inv.Obj), sim.StepDone
	case history.TMWrite:
		return nil, t.local.write(id, inv.Obj, inv.Arg), sim.StepDone
	default:
		return nil, history.Abort, sim.StepDone
	}
}

// dtmCommitFrame is an in-flight tryC past the active check. pc: 0 =
// write intent, 1 = flush, 2 = commit CAS, 3 = clear intent, 4 = flush
// the clear.
type dtmCommitFrame struct {
	t    *DurableTM
	in   *commitIntent
	pc   int
	resp history.Value
}

// Step implements sim.Frame.
func (f *dtmCommitFrame) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	reg := f.t.logs[p.ID()]
	switch f.pc {
	case 0:
		reg.WriteW(p, f.in)
		f.pc = 1
	case 1:
		reg.FlushW(p)
		f.pc = 2
	case 2:
		f.resp = history.Abort
		if f.t.c.CompareAndSwapW(p, f.in.prev, f.in.next) {
			f.resp = history.Commit
		}
		f.pc = 3
	case 3:
		reg.WriteW(p, nil)
		f.pc = 4
	case 4:
		reg.FlushW(p)
		return f.resp, sim.StepDone
	}
	return nil, sim.StepPaused
}

// Fork implements sim.Frame.
func (f *dtmCommitFrame) Fork() sim.Frame {
	c := *f
	return &c
}

// dtmRecFrame is the recovery routine: read the durable commit log,
// redo it with the prev-guard, clear it. pc: 0 = read log (done if
// none), 1 = guarded redo CAS, 2 = clear log, 3 = flush the clear.
type dtmRecFrame struct {
	t  *DurableTM
	pc int
	in *commitIntent
}

// Step implements sim.Frame.
func (f *dtmRecFrame) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	reg := f.t.logs[p.ID()]
	switch f.pc {
	case 0:
		in, _ := reg.ReadW(p).(*commitIntent)
		if in == nil {
			return nil, sim.StepDone
		}
		f.in = in
		f.pc = 1
	case 1:
		// See Persistent's recovery: the guard makes the redo idempotent —
		// the crashed commit takes effect at most once.
		f.t.c.CompareAndSwapW(p, f.in.prev, f.in.next)
		f.pc = 2
	case 2:
		reg.WriteW(p, nil)
		f.pc = 3
	case 3:
		reg.FlushW(p)
		return nil, sim.StepDone
	}
	return nil, sim.StepPaused
}

// Fork implements sim.Frame.
func (f *dtmRecFrame) Fork() sim.Frame {
	c := *f
	return &c
}
