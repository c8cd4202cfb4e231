// Package queue implements FIFO queues from base objects, the "high-level
// object implementations from registers" context the paper's Section 1
// applies its results to. Two implementations contrast the blocking and
// non-blocking worlds:
//
//   - Locked: a register-held queue guarded by a two-process Peterson lock
//     — linearizable, starvation-free under fair schedules, but *blocking*:
//     a process crashing inside the critical section wedges everyone else
//     forever (the failure mode motivating the paper's non-blocking
//     systems).
//   - CASQueue: a Treiber-style queue on a single compare-and-swap object
//     — linearizable and lock-free: crashes between steps never block the
//     others, and a failed CAS implies another operation committed.
//
// Operations: "enq" (argument, responds OK) and "deq" (responds the head
// value or safety.EmptyResp).
package queue

import (
	"repro/internal/base"
	"repro/internal/history"
	"repro/internal/mutex"
	"repro/internal/safety"
	"repro/internal/sim"
)

// qstate is the immutable queue content stored in the central object.
type qstate struct {
	items []history.Value
}

func (q *qstate) enq(v history.Value) *qstate {
	items := make([]history.Value, len(q.items)+1)
	copy(items, q.items)
	items[len(q.items)] = v
	return &qstate{items: items}
}

func (q *qstate) deq() (*qstate, history.Value) {
	if len(q.items) == 0 {
		return q, safety.EmptyResp
	}
	items := make([]history.Value, len(q.items)-1)
	copy(items, q.items[1:])
	return &qstate{items: items}, q.items[0]
}

// Locked is the lock-based queue (two processes, Peterson lock).
//
//slx:norecover lock and state registers are modeled durable; recovery is a bare re-spawn
type Locked struct {
	base.Mem
	lock  *mutex.Peterson
	state *base.Register
}

// NewLocked creates the queue. The Peterson lock keeps its own memory,
// attached as a part.
func NewLocked() *Locked {
	q := &Locked{lock: mutex.NewPeterson()}
	q.state = base.NewRegister(&q.Mem, "queue", &qstate{})
	base.Attach(&q.Mem, q.lock)
	return q
}

// Footprints implements sim.Footprinted: all shared state is in the
// Peterson lock's registers and the queue register.
func (q *Locked) Footprints() bool { return true }

// Fingerprint implements sim.Fingerprintable: the queue register's
// *qstate is only read and replaced, never compared by pointer, so its
// content encoding is canonical; the lock registers follow.
func (q *Locked) Fingerprint(f *sim.Fingerprinter) { q.Fold(f) }

// Apply implements sim.Object.
func (q *Locked) Apply(p *sim.Proc, inv sim.Invocation) history.Value {
	return sim.ApplyFrames(q, p, inv)
}

// lockedFrame is one in-flight Locked operation: acquire the embedded
// Peterson lock (delegating to its continuation frame), read the state
// register, write the new state, release. pc: 0 = acquiring, 1 = read
// state, 2 = write state, 3 = releasing.
type lockedFrame struct {
	q    *Locked
	inv  sim.Invocation
	pc   int
	sub  sim.Frame // in-flight lock acquire/release continuation
	next *qstate
	resp history.Value
}

// Begin implements sim.Stepped: the first access is the lock acquire's
// opening write, so the invocation window runs no object code.
func (q *Locked) Begin(p *sim.Proc, inv sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	sub, _, _ := q.lock.Begin(p, sim.Invocation{Op: mutex.OpAcquire})
	return &lockedFrame{q: q, inv: inv, sub: sub}, nil, sim.StepPaused
}

// Step implements sim.Frame.
func (f *lockedFrame) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	q := f.q
	switch f.pc {
	case 0: // acquiring the lock
		if _, st := f.sub.Step(p); st == sim.StepDone {
			f.sub = nil
			f.pc = 1
		}
	case 1: // read the queue state; compute the new content locally
		st := q.state.ReadW(p).(*qstate)
		switch f.inv.Op {
		case "enq":
			f.next = st.enq(f.inv.Arg)
			f.resp = history.OK
			f.pc = 2
		case "deq":
			f.next, f.resp = st.deq()
			f.pc = 2
		default:
			// Unknown ops skip the write.
			f.sub, _, _ = q.lock.Begin(p, sim.Invocation{Op: mutex.OpRelease})
			f.pc = 3
		}
	case 2: // write the new queue state
		q.state.WriteW(p, f.next)
		f.sub, _, _ = q.lock.Begin(p, sim.Invocation{Op: mutex.OpRelease})
		f.pc = 3
	case 3: // releasing the lock
		if _, st := f.sub.Step(p); st == sim.StepDone {
			return f.resp, sim.StepDone
		}
	}
	return nil, sim.StepPaused
}

// Fork implements sim.Frame.
func (f *lockedFrame) Fork() sim.Frame {
	c := *f
	if c.sub != nil {
		c.sub = c.sub.Fork()
	}
	return &c
}

// CASQueue is the lock-free queue on one CAS object.
//
// CASQueue deliberately does NOT implement sim.Fingerprintable: its CAS
// compares *qstate pointers, so two content-equal states can still
// behave differently — after a deq(x);enq(x) pair the queue content is
// restored but a process holding the old pointer will fail its CAS
// (the classic ABA distinction). A content fingerprint would equate
// those states and let the exploration cache prune subtrees with
// genuinely different futures. Unlike a fingerprint, the memory's
// snapshot captures pointer identity — Restore reinstates the exact
// *qstate pointer, so the ABA distinction is preserved and incremental
// exploration stays sound.
//
//slx:nofingerprint CAS on *qstate pointer identity: content-equal states diverge (ABA)
//slx:nofootprint every step CASes the one state cell, so all steps conflict anyway
//slx:norecover the one CAS cell is modeled durable; Persistent is the crash-modeled variant
type CASQueue struct {
	base.Mem
	state *base.CAS
}

// NewCASQueue creates the queue.
func NewCASQueue() *CASQueue {
	q := &CASQueue{}
	q.state = base.NewCAS(&q.Mem, "queue", &qstate{})
	return q
}

// Apply implements sim.Object.
func (q *CASQueue) Apply(p *sim.Proc, inv sim.Invocation) history.Value {
	return sim.ApplyFrames(q, p, inv)
}

// casQueueFrame is one in-flight CASQueue operation: alternating
// read/CAS steps until a CAS succeeds. st is the pointer read by the
// previous step (nil when the next step is the read).
type casQueueFrame struct {
	q   *CASQueue
	inv sim.Invocation
	st  *qstate
}

// Begin implements sim.Stepped.
func (q *CASQueue) Begin(p *sim.Proc, inv sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	return &casQueueFrame{q: q, inv: inv}, nil, sim.StepPaused
}

// Step implements sim.Frame.
func (f *casQueueFrame) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	q := f.q
	if f.st == nil {
		st := q.state.ReadW(p).(*qstate)
		switch f.inv.Op {
		case "enq":
		case "deq":
			if len(st.items) == 0 {
				// An empty dequeue linearizes at the read; no CAS needed.
				_, v := st.deq()
				return v, sim.StepDone
			}
		default:
			return nil, sim.StepDone
		}
		f.st = st
		return nil, sim.StepPaused
	}
	st := f.st
	f.st = nil
	switch f.inv.Op {
	case "enq":
		if q.state.CompareAndSwapW(p, st, st.enq(f.inv.Arg)) {
			return history.OK, sim.StepDone
		}
	case "deq":
		next, v := st.deq()
		if q.state.CompareAndSwapW(p, st, next) {
			return v, sim.StepDone
		}
	}
	return nil, sim.StepPaused
}

// Fork implements sim.Frame.
func (f *casQueueFrame) Fork() sim.Frame {
	c := *f
	return &c
}
