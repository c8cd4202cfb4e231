// Package tm implements the transactional-memory shared object type of the
// paper with four implementations:
//
//   - I12: the paper's Algorithm 1 verbatim — a single compare-and-swap
//     object C holding (version, values), a snapshot object R[1..n] of
//     per-process timestamps, and the count>=3 timestamp abort rule. Lemma
//     5.4: I12 ensures opacity, the Section 5.3 property S, and
//     (1,2)-freedom. The snapshot can be the hardware primitive or the
//     software construction from registers (NewI12WithSnapshot).
//   - GlobalCAS: Algorithm 1 without the timestamp rule, i.e. the
//     AGP-style TM of the paper's reference [16]. It ensures opacity and
//     1-lock-freedom (a failed commit CAS means another transaction
//     committed), hence (1,n)-freedom — the white column of Figure 1(b).
//     It stands in for Fraser's OSTM [9]; see DESIGN.md for why the
//     substitution is faithful.
//   - DSTM (dstm.go): a simplified obstruction-free TM in the style of the
//     paper's reference [21] — opaque, (1,1)-free, and demonstrably not
//     lock-free.
//   - Aborter: aborts everything; trivially opaque, zero progress. It
//     motivates restricting TM good responses to commit events.
//
// The TM operations are "start", "read" (Obj = variable name), "write"
// (Obj + Arg) and "tryC", with responses ok / value / C / A exactly as in
// the paper's Section 4.1.
//
// Every implementation is written once, as a frame machine (sim.Stepped:
// one base-object access per Step); its Apply is sim.ApplyFrames over
// the same frames. I12's snapshot object is written the same way, so
// I12's frames step the snapshot's update and scan frames as
// sub-frames, whichever snapshot it is built on.
package tm

import (
	"math/rand"

	"repro/internal/base"
	"repro/internal/history"
	"repro/internal/sim"
)

// memState is the immutable record stored in the central CAS object C:
// a version number plus the committed values of all transactional
// variables. CAS compares pointer identities, the standard technique for
// CAS-based STM.
type memState struct {
	version int
	vals    map[string]history.Value
}

// txCtx is a process's transaction context (the paper's process-local
// variables: version, values, timestamp) as an immutable record in a
// local cell of the TM's memory, so a snapshot copies one pointer per
// process. The buffered writes form a persistent list over the start
// snapshot, newest first: a write allocates one node and copies no map.
type txCtx struct {
	snapshot  *memState // (version, oldval) read by start
	writes    *txWrite  // buffered writes, newest first
	active    bool
	timestamp int
}

// txWrite is one buffered write, linked to the older ones.
type txWrite struct {
	v    string
	val  history.Value
	next *txWrite
}

// txContexts are a TM's per-process transaction contexts, one local
// cell each (index 0 unused), initially the inactive zero context.
type txContexts []*base.Local

// newTxContexts allocates the contexts of processes 1..n in m.
func newTxContexts(m *base.Mem, n int) txContexts {
	c := make(txContexts, n+1)
	for p := 1; p <= n; p++ {
		c[p] = base.NewLocal(m, &txCtx{})
	}
	return c
}

// get returns process id's context.
func (c txContexts) get(id int) *txCtx { return c[id].Get().(*txCtx) }

// update installs a copy of process id's context changed by f, and
// returns it.
func (c txContexts) update(id int, f func(*txCtx)) *txCtx {
	next := *c.get(id)
	f(&next)
	c[id].Set(&next)
	return &next
}

// read returns process id's newest buffered value of v, else its start
// snapshot's (0 if the transaction never saw v), or A once the
// transaction is no longer active.
func (c txContexts) read(id int, v string) history.Value {
	l := c.get(id)
	if !l.active {
		return history.Abort
	}
	for w := l.writes; w != nil; w = w.next {
		if w.v == v {
			return w.val
		}
	}
	if val, ok := l.snapshot.vals[v]; ok {
		return val
	}
	return 0
}

// write buffers val for v in process id's context, or answers A once
// the transaction is no longer active.
func (c txContexts) write(id int, v string, val history.Value) history.Value {
	if !c.get(id).active {
		return history.Abort
	}
	c.update(id, func(l *txCtx) { l.writes = &txWrite{v: v, val: val, next: l.writes} })
	return history.OK
}

// txStartFrame is an in-flight start past any announcement: one read of
// the central CAS c, beginning a transaction on it in the context cell
// ctx. It holds no mutable state, so Fork returns the receiver.
type txStartFrame struct {
	c   *base.CAS
	ctx *base.Local
}

// Step implements sim.Frame.
func (f *txStartFrame) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	st := f.c.ReadW(p).(*memState)
	f.ctx.Set(&txCtx{snapshot: st, active: true, timestamp: f.ctx.Get().(*txCtx).timestamp})
	return history.OK, sim.StepDone
}

// Fork implements sim.Frame.
func (f *txStartFrame) Fork() sim.Frame { return f }

// commitState returns the state the transaction's commit CAS installs:
// the start snapshot's values under the newest buffered write of each
// variable, one version later.
func (l *txCtx) commitState() *memState {
	vals := make(map[string]history.Value, len(l.snapshot.vals))
	for w := l.writes; w != nil; w = w.next {
		if _, newer := vals[w.v]; !newer {
			vals[w.v] = w.val
		}
	}
	for k, v := range l.snapshot.vals {
		if _, written := vals[k]; !written {
			vals[k] = v
		}
	}
	return &memState{version: l.snapshot.version + 1, vals: vals}
}

// SnapshotObject is the snapshot object R[1..n] of Algorithm 1, written
// as frame machines: UpdateFrame(i, v) writes component i (0-based) and
// ScanFrame reads all components, each as a frame I12's own frames step
// one base-object access at a time. A scan frame's StepDone value is the
// scanned []history.Value. As a base.Part, the object's Snapshot and
// Restore capture and reinstate its state inside I12's. The hardware
// primitive (NewI12) completes either operation in one step; the
// software snapshot.SW built from registers takes many.
type SnapshotObject interface {
	UpdateFrame(i int, v history.Value) sim.Frame
	ScanFrame() sim.Frame
	base.Part
}

// hwSnapshot is the hardware base.Snapshot as a SnapshotObject, in its
// own memory. Each operation is one access, so its frames finish in
// their first Step and never mutate: Fork returns the receiver, and one
// scan frame serves every scan.
type hwSnapshot struct {
	base.Mem
	s    *base.Snapshot
	scan *hwFrame
}

// newHWSnapshot creates the hardware snapshot R[1..n], initially 0.
func newHWSnapshot(n int) *hwSnapshot {
	h := &hwSnapshot{}
	h.s = base.NewSnapshot(&h.Mem, "R", n, 0)
	h.scan = &hwFrame{s: h.s, i: -1}
	return h
}

// UpdateFrame implements SnapshotObject.
func (h *hwSnapshot) UpdateFrame(i int, v history.Value) sim.Frame {
	return &hwFrame{s: h.s, i: i, v: v}
}

// ScanFrame implements SnapshotObject.
func (h *hwSnapshot) ScanFrame() sim.Frame { return h.scan }

// hwFrame is an in-flight hardware operation: one UpdateW window on
// component i, or one ScanW window when i < 0.
type hwFrame struct {
	s *base.Snapshot
	i int
	v history.Value
}

// Step implements sim.Frame.
func (f *hwFrame) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	if f.i < 0 {
		return f.s.ScanW(p, nil), sim.StepDone
	}
	f.s.UpdateW(p, f.i, f.v)
	return nil, sim.StepDone
}

// Fork implements sim.Frame.
func (f *hwFrame) Fork() sim.Frame { return f }

// I12 is the paper's Algorithm 1, implementing a TM that ensures S and
// (1,2)-freedom.
//
//slx:nofingerprint CAS compares *memState pointers: content-equal snapshots still differ (ABA)
//slx:norecover local transaction contexts are not crash-modeled; DurableTM is the crash-recovery variant
type I12 struct {
	base.Mem
	c     *base.CAS
	r     SnapshotObject
	local txContexts
}

// NewI12 creates the implementation for n processes using the hardware
// snapshot primitive.
func NewI12(n int) *I12 {
	return NewI12WithSnapshot(n, newHWSnapshot(n))
}

// NewI12WithSnapshot creates the implementation with a caller-provided
// snapshot object (e.g. the software snapshot from registers), so the TM
// is built from registers plus a single CAS. The snapshot object is a
// part of the TM's memory.
func NewI12WithSnapshot(n int, snap SnapshotObject) *I12 {
	t := &I12{r: snap}
	t.c = base.NewCAS(&t.Mem, "C", &memState{version: 1})
	t.local = newTxContexts(&t.Mem, n)
	base.Attach(&t.Mem, snap)
	return t
}

// Apply implements sim.Object.
func (t *I12) Apply(p *sim.Proc, inv sim.Invocation) history.Value {
	return sim.ApplyFrames(t, p, inv)
}

// Footprints implements sim.Footprinted: cross-process state is the
// central CAS C and the snapshot R (both declaring base objects when the
// hardware primitives are used); the local contexts are per-process.
// With a software snapshot (NewI12WithSnapshot) the component registers
// declare themselves instead, which is equally sound.
func (t *I12) Footprints() bool { return true }

// Begin implements sim.Stepped. "read" and "write" are pure local-buffer
// operations — zero accesses, so the whole operation completes in the
// invocation window. "start" bumps the local timestamp in the invocation
// window (it steers no shared access yet), then announces it through the
// snapshot's update frame and reads C. "tryC" takes its active-flag
// branch in the invocation window — the flag is local state that steers
// the operation's control flow, so it is folded into the local-state
// fingerprint — then scans the timestamps through the snapshot's scan
// frame and attempts the commit CAS.
func (t *I12) Begin(p *sim.Proc, inv sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	id := p.ID()
	switch inv.Op {
	case history.TMStart:
		l := t.local.update(id, func(l *txCtx) { l.timestamp++ })
		return &i12StartFrame{sub: t.r.UpdateFrame(id-1, l.timestamp), start: txStartFrame{c: t.c, ctx: t.local[id]}}, nil, sim.StepPaused
	case history.TMTryC:
		active := t.local.get(id).active
		p.Observe(active)
		if !active {
			return nil, history.Abort, sim.StepDone
		}
		return &i12TryCFrame{t: t, tx: t.local.update(id, func(l *txCtx) { l.active = false }), sub: t.r.ScanFrame()}, nil, sim.StepPaused
	case history.TMRead:
		return nil, t.local.read(id, inv.Obj), sim.StepDone
	case history.TMWrite:
		return nil, t.local.write(id, inv.Obj, inv.Arg), sim.StepDone
	default:
		return nil, history.Abort, sim.StepDone
	}
}

// i12StartFrame is an in-flight start: step the snapshot's update
// frame (sub) until it completes, then the start proper.
type i12StartFrame struct {
	sub   sim.Frame // nil once the announcement is written
	start txStartFrame
}

// Step implements sim.Frame.
func (f *i12StartFrame) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	if f.sub == nil {
		return f.start.Step(p)
	}
	if _, st := f.sub.Step(p); st == sim.StepDone {
		f.sub = nil
	}
	return nil, sim.StepPaused
}

// Fork implements sim.Frame.
func (f *i12StartFrame) Fork() sim.Frame {
	c := *f
	if c.sub != nil {
		c.sub = c.sub.Fork()
	}
	return &c
}

// i12TryCFrame is an in-flight tryC past the active check: step the
// snapshot's scan frame (sub) until it completes, applying the count
// rule in the window where the scan completes, then attempt the commit
// CAS of the ended transaction tx.
type i12TryCFrame struct {
	t    *I12
	tx   *txCtx
	sub  sim.Frame // nil once the scan is complete
	next *memState
}

// Step implements sim.Frame.
func (f *i12TryCFrame) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	t := f.t
	if f.sub != nil {
		view, st := f.sub.Step(p)
		if st != sim.StepDone {
			return nil, sim.StepPaused
		}
		f.sub = nil
		// The timestamp abort rule: count processes whose announced
		// timestamp is at least ours (including ourselves, as in the
		// paper's loop); three or more means at least two concurrent
		// same-timestamp transactions observed our start, so abort.
		count := 0
		for _, ts := range view.([]history.Value) {
			if ts.(int) >= f.tx.timestamp {
				count++
			}
		}
		if count >= 3 {
			return history.Abort, sim.StepDone
		}
		f.next = f.tx.commitState()
		return nil, sim.StepPaused
	}
	if t.c.CompareAndSwapW(p, f.tx.snapshot, f.next) {
		return history.Commit, sim.StepDone
	}
	return history.Abort, sim.StepDone
}

// Fork implements sim.Frame.
func (f *i12TryCFrame) Fork() sim.Frame {
	c := *f
	if c.sub != nil {
		c.sub = c.sub.Fork()
	}
	return &c
}

// GlobalCAS is Algorithm 1 without the timestamp rule: an opaque,
// 1-lock-free TM (the paper's reference [16] AGP algorithm).
//
//slx:nofingerprint CAS compares *memState pointers: content-equal snapshots still differ (ABA)
//slx:norecover local transaction contexts are not crash-modeled; DurableTM is the crash-recovery variant
type GlobalCAS struct {
	base.Mem
	c     *base.CAS
	local txContexts
}

// NewGlobalCAS creates the implementation for n processes.
func NewGlobalCAS(n int) *GlobalCAS {
	t := &GlobalCAS{}
	t.c = base.NewCAS(&t.Mem, "C", &memState{version: 1})
	t.local = newTxContexts(&t.Mem, n)
	return t
}

// Apply implements sim.Object.
func (t *GlobalCAS) Apply(p *sim.Proc, inv sim.Invocation) history.Value {
	return sim.ApplyFrames(t, p, inv)
}

// Footprints implements sim.Footprinted: the only cross-process state is
// the central CAS C; the transaction contexts are per-process.
func (t *GlobalCAS) Footprints() bool { return true }

// Begin implements sim.Stepped (see I12.Begin; GlobalCAS has no
// snapshot object, so start is a single read and tryC a single CAS).
// Both frames are immutable after Begin, so Fork returns the receiver.
func (t *GlobalCAS) Begin(p *sim.Proc, inv sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
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
		return &gcasCommitFrame{t: t, old: l.snapshot, next: l.commitState()}, nil, sim.StepPaused
	case history.TMRead:
		return nil, t.local.read(id, inv.Obj), sim.StepDone
	case history.TMWrite:
		return nil, t.local.write(id, inv.Obj, inv.Arg), sim.StepDone
	default:
		return nil, history.Abort, sim.StepDone
	}
}

// gcasCommitFrame is an in-flight tryC past the active check: one
// commit CAS.
type gcasCommitFrame struct {
	t         *GlobalCAS
	old, next *memState
}

// Step implements sim.Frame.
func (f *gcasCommitFrame) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	if f.t.c.CompareAndSwapW(p, f.old, f.next) {
		return history.Commit, sim.StepDone
	}
	return history.Abort, sim.StepDone
}

// Fork implements sim.Frame: the frame holds no mutable state.
func (f *gcasCommitFrame) Fork() sim.Frame { return f }

// Aborter responds A to every operation. It is trivially opaque and makes
// no progress whatsoever — requiring only "every operation returns" is
// vacuous for TM, which is why G_Tp is restricted to commits.
type Aborter struct{}

// Apply implements sim.Object.
func (a Aborter) Apply(p *sim.Proc, inv sim.Invocation) history.Value {
	return sim.ApplyFrames(a, p, inv)
}

// Begin implements sim.Stepped: every operation aborts in its
// invocation window.
func (Aborter) Begin(*sim.Proc, sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	return nil, history.Abort, sim.StepDone
}

// Txn is a transaction template for workload environments: a sequence of
// read/write accesses followed by a commit request.
type Txn struct {
	// Accesses are performed in order after start.
	Accesses []Access
}

// Access is one read or write of a transaction template.
type Access struct {
	// Write says whether this is a write (otherwise a read).
	Write bool
	// Var is the transactional variable name.
	Var string
	// Val is the written value (writes only).
	Val history.Value
}

// txnLoopEnv drives each process through its transaction template over
// and over. It keeps no mutable state: the position within the cycle is
// derived from the history view (invocations since the process's latest
// start), as the sim.Environment contract requires.
type txnLoopEnv struct {
	templates map[int]Txn
}

// Next implements sim.Environment.
func (e *txnLoopEnv) Next(proc int, v *sim.View) (sim.Invocation, bool) {
	tpl, ok := e.templates[proc]
	if !ok {
		return sim.Invocation{}, false
	}
	// Walk the history backwards: record the process's most recent
	// response and count its invocations back to (and including) its
	// latest start. The process has no pending operation at consultation
	// time, so the latest response (if any) is its latest event.
	m := 0
	inTxn := false
	var lastResp history.Value
	sawResp := false
	for i := len(v.H) - 1; i >= 0; i-- {
		ev := &v.H[i]
		if ev.Proc != proc {
			continue
		}
		if ev.Kind == history.KindCrash || ev.Kind == history.KindRecover {
			// The walk reached a crash boundary before a start: the process
			// was recovered and has not invoked since. Its crashed
			// transaction never completes and the local context was lost,
			// so the cycle restarts with a fresh start (inTxn stays false).
			break
		}
		if !sawResp && ev.Kind == history.KindResponse {
			sawResp = true
			lastResp = ev.Val
		}
		if ev.Kind == history.KindInvoke {
			m++
			if ev.Op == history.TMStart {
				inTxn = true
				break
			}
		}
	}
	// An aborted operation ends the transaction early; a completed cycle
	// (start, accesses, tryC all invoked) or no transaction yet also
	// means the next invocation is a fresh start.
	if (sawResp && lastResp == history.Abort) || !inTxn || m == len(tpl.Accesses)+2 {
		return sim.Invocation{Op: history.TMStart}, true
	}
	if m <= len(tpl.Accesses) {
		a := tpl.Accesses[m-1]
		if a.Write {
			return sim.Invocation{Op: history.TMWrite, Obj: a.Var, Arg: a.Val}, true
		}
		return sim.Invocation{Op: history.TMRead, Obj: a.Var}, true
	}
	return sim.Invocation{Op: history.TMTryC}, true
}

// TxnLoop is an environment in which each process executes its transaction
// template over and over: start, the accesses, tryC, repeat. If a process
// has no template it is parked. Aborted operations end the transaction
// early (the next invocation is a fresh start).
func TxnLoop(templates map[int]Txn) sim.Environment {
	return &txnLoopEnv{templates: templates}
}

// RandomWorkload builds per-process transaction templates with opsPerTx
// accesses over vars variables, deterministically from seed. Written
// values are tagged with the writing process to make histories
// discriminating.
func RandomWorkload(seed int64, procs, vars, opsPerTx int) map[int]Txn {
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, vars)
	for i := range names {
		names[i] = string(rune('x'+i%3)) + string(rune('0'+i/3))
	}
	out := make(map[int]Txn, procs)
	for p := 1; p <= procs; p++ {
		var t Txn
		for i := 0; i < opsPerTx; i++ {
			a := Access{Var: names[rng.Intn(len(names))]}
			if rng.Intn(2) == 0 {
				a.Write = true
				a.Val = p*100 + i
			}
			t.Accesses = append(t.Accesses, a)
		}
		out[p] = t
	}
	return out
}
