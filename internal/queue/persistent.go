package queue

import (
	"fmt"

	"repro/internal/base"
	"repro/internal/history"
	"repro/internal/safety"
	"repro/internal/sim"
)

// Persistent is the crash–recovery queue: a lock-free CAS queue whose
// operations survive crashes through per-process durable intent
// records. Every mutating operation follows the write-ahead discipline
//
//	read committed → write intent (volatile) → flush intent (durable)
//	→ CAS committed → clear intent (volatile) → flush clear (durable)
//
// and the recovery routine of a crashed process replays its durable
// intent with a prev-pointer guard: the redo CAS succeeds only if the
// committed state still equals the intent's pre-state, which — qstate
// records being freshly allocated and never reused — happens exactly
// when the crashed operation had not taken effect. The replay is
// therefore idempotent: a crashed operation takes effect at most once
// (strictly linearizable under crash+recovery; contrast the seeded
// roll-forward bug in examples/durablequeue, which re-applies the
// operation unconditionally).
//
// Durable state: the committed qstate and the flushed halves of the
// intent registers. Volatile state: the intent registers' caches, wiped
// by CrashVolatile at every crash — an intent written but not yet
// flushed vanishes with the crash, and with it the operation.
//
//slx:nofingerprint CAS on *qstate pointer identity: content-equal states diverge (ABA)
type Persistent struct {
	base.Mem
	committed *base.CAS
	intents   []*base.DurableRegister // indexed by 1-based proc id
}

// intent is one durable redo record, immutable once stored.
type intent struct {
	prev, next *qstate
	resp       history.Value
}

// NewPersistent creates the queue for processes 1..n.
func NewPersistent(n int) *Persistent {
	q := &Persistent{intents: make([]*base.DurableRegister, n+1)}
	q.committed = base.NewCAS(&q.Mem, "queue", &qstate{})
	for p := 1; p <= n; p++ {
		q.intents[p] = base.NewDurableRegister(&q.Mem, fmt.Sprintf("intent.%d", p), nil)
	}
	return q
}

// Footprints implements sim.Footprinted: all shared state is in the
// committed CAS and the per-process intent registers, each of which
// declares its accesses.
func (q *Persistent) Footprints() bool { return true }

// CrashVolatile implements sim.Recoverable: every intent cache reverts
// to its flushed value. The committed CAS is durable.
func (q *Persistent) CrashVolatile() { q.Wipe() }

// RecoverFrame implements sim.Recoverable.
func (q *Persistent) RecoverFrame() sim.Frame { return &persistRecFrame{q: q} }

// step computes one operation's transition at st. ok=false means the
// operation completes without mutating (empty dequeue, unknown op).
func persistStep(st *qstate, op string, arg history.Value) (next *qstate, resp history.Value, ok bool) {
	switch op {
	case "enq":
		return st.enq(arg), history.OK, true
	case "deq":
		if len(st.items) == 0 {
			return nil, safety.EmptyResp, false
		}
		next, resp = st.deq()
		return next, resp, true
	default:
		return nil, nil, false
	}
}

// Apply implements sim.Object.
func (q *Persistent) Apply(p *sim.Proc, inv sim.Invocation) history.Value {
	return sim.ApplyFrames(q, p, inv)
}

// persistFrame is one in-flight Persistent operation. pc: 0 = read
// committed, 1 = write intent, 2 = flush intent, 3 = CAS committed
// (back to 0 on failure), 4 = clear intent, 5 = flush the clear.
type persistFrame struct {
	q    *Persistent
	inv  sim.Invocation
	pc   int
	in   *intent
	resp history.Value
}

// Begin implements sim.Stepped.
func (q *Persistent) Begin(p *sim.Proc, inv sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	return &persistFrame{q: q, inv: inv}, nil, sim.StepPaused
}

// Step implements sim.Frame.
func (f *persistFrame) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	q := f.q
	reg := q.intents[p.ID()]
	switch f.pc {
	case 0:
		st := q.committed.ReadW(p).(*qstate)
		next, resp, ok := persistStep(st, f.inv.Op, f.inv.Arg)
		if !ok {
			// Empty dequeue (or unknown op) linearizes at the read;
			// nothing to persist.
			return resp, sim.StepDone
		}
		f.in = &intent{prev: st, next: next, resp: resp}
		f.pc = 1
	case 1:
		reg.WriteW(p, f.in)
		f.pc = 2
	case 2:
		reg.FlushW(p)
		f.pc = 3
	case 3:
		if q.committed.CompareAndSwapW(p, f.in.prev, f.in.next) {
			f.resp = f.in.resp
			f.pc = 4
		} else {
			f.in = nil
			f.pc = 0
		}
	case 4:
		reg.WriteW(p, nil)
		f.pc = 5
	case 5:
		reg.FlushW(p)
		return f.resp, sim.StepDone
	}
	return nil, sim.StepPaused
}

// Fork implements sim.Frame.
func (f *persistFrame) Fork() sim.Frame {
	c := *f
	return &c
}

// persistRecFrame is the recovery routine: read the durable intent,
// redo it with the prev-guard, clear it. pc: 0 = read intent (done if
// none), 1 = guarded redo CAS, 2 = clear intent, 3 = flush the clear.
type persistRecFrame struct {
	q  *Persistent
	pc int
	in *intent
}

// Step implements sim.Frame. Recovery frames record no response; the
// returned value on StepDone is discarded by the runtime.
func (f *persistRecFrame) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	reg := f.q.intents[p.ID()]
	switch f.pc {
	case 0:
		in, _ := reg.ReadW(p).(*intent)
		if in == nil {
			return nil, sim.StepDone
		}
		f.in = in
		f.pc = 1
	case 1:
		// The guard: committed still equals the intent's pre-state exactly
		// when the crashed operation had not taken effect (qstate records
		// are never reused), so the redo applies it at most once.
		f.q.committed.CompareAndSwapW(p, f.in.prev, f.in.next)
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
func (f *persistRecFrame) Fork() sim.Frame {
	c := *f
	return &c
}
