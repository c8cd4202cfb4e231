package safety

import "repro/internal/history"

// TMMonitor is the one decision procedure for the TM safety properties:
// opacity, strict serializability and the Section 5.3 property S. Their
// batch checks (Opaque, StrictSerializability.Holds, PropertyS.Holds)
// replay the history through it (BatchAdapter), so Check, Replay,
// Explore and sampling judge a history the same way.
//
// Opacity is defined per prefix: every prefix ending in a response must
// admit a legal serialization. The monitor keeps one record per
// transaction, updated in O(1) per event with history.Transactions'
// grouping rules, malformed sequences included: its status, its
// successful reads and writes in program order, whether its last
// invocation is a tryC still pending, its real-time predecessors (the
// transactions already completed when it started, so the set never
// changes), and for the timestamp rule its per-process sequence number,
// start response and last tryC invocation. The serialization search
// (serializable) runs from scratch, but only on a response after which
// its answer can differ from the last one's: when a read returned a
// value, a transaction committed, or an operation answered a pending
// tryC, or when an invocation replaced a pending tryC. Every other
// change leaves each transaction's allowed roles and read constraints as
// they were, or only adds a role, or adds a write after a transaction's
// last step while it can only abort. The timestamp rule changes only
// when a member of a same-t group invokes tryC or commits, so a tryC
// event re-checks that group alone, when it has three members or more.
//
// The consumed history is kept for StateDigest, which folds it lazily,
// and for the open invocations a response completes. Fork shares the
// completed transactions' records, which never change again, and
// copies the live ones. The fork's views of the shared history and
// step slices are clipped, so its first append reallocates, while the
// parent, which only ever appends past every fork's view, keeps
// appending in place.
type TMMonitor struct {
	h      history.History
	dig    history.LazyDigest // digest of h, folded when StateDigest asks
	recs   []*txRecord        // one per transaction, in start-invocation order
	procs  []tmProc           // per-process grouping state
	strict bool               // strict serializability instead of opacity
	rule   bool               // additionally enforce the Section 5.3 timestamp rule
	dirty  bool               // a record changed so that the search may answer differently
	failed bool
}

// tmProc is history.Transactions' per-process state: the current
// transaction and the invocation still open in it.
type tmProc struct {
	id   int
	cur  int // index of the current transaction in recs, -1 before the first start
	seq  int // transactions started so far
	open int // index in h of the live current transaction's invocation without a response, -1 if none
}

// NewOpacityMonitor creates the incremental opacity monitor.
func NewOpacityMonitor() *TMMonitor { return &TMMonitor{} }

// NewStrictSerializabilityMonitor creates the incremental strict
// serializability monitor.
func NewStrictSerializabilityMonitor() *TMMonitor { return &TMMonitor{strict: true} }

// NewPropertySMonitor creates the incremental monitor for the Section
// 5.3 property S (opacity plus the timestamp-abort rule).
func NewPropertySMonitor() *TMMonitor { return &TMMonitor{rule: true} }

// Step implements Monitor.
func (m *TMMonitor) Step(e history.Event) bool {
	if m.failed {
		return false
	}
	i := len(m.h)
	if cap(m.h) == 0 {
		// A fresh monitor, or one forked before any event, as at the
		// root of every sampled schedule: reserve a typical schedule's
		// events at once instead of growing through five reallocations.
		m.h = make(history.History, 0, 16)
	}
	m.h = append(m.h, e)
	switch e.Kind {
	case history.KindInvoke:
		m.invoke(i, e)
	case history.KindResponse:
		m.respond(i, e)
		if len(m.recs) > maxOpacityTxs || (m.dirty && !serializable(m.recs, m.strict)) {
			m.failed = true
			return false
		}
		m.dirty = false
	}
	if m.rule && e.Op == history.TMTryC && !m.ruleHolds(e.Proc) {
		m.failed = true
		return false
	}
	return true
}

// proc returns the state of process id, nil if it never invoked.
func (m *TMMonitor) proc(id int) *tmProc {
	for k := range m.procs {
		if m.procs[k].id == id {
			return &m.procs[k]
		}
	}
	return nil
}

// invoke applies an invocation: a start begins a transaction whose
// predecessors are the completed ones, and an invocation inside the
// live current transaction becomes its open operation.
func (m *TMMonitor) invoke(i int, e history.Event) {
	p := m.proc(e.Proc)
	if p == nil {
		m.procs = append(m.procs, tmProc{id: e.Proc, cur: -1, open: -1})
		p = &m.procs[len(m.procs)-1]
	}
	if e.Op == history.TMStart {
		precede := newBitset(len(m.recs))
		for k, r := range m.recs {
			if r.status != history.TxLive {
				precede.setBit(k)
			}
		}
		p.seq++
		p.cur = len(m.recs)
		m.recs = append(m.recs, &txRecord{
			roles: abortOnly, precede: precede,
			status: history.TxLive, seq: p.seq, startRes: -1, tryCInv: -1,
		})
	}
	if p.cur < 0 || m.recs[p.cur].status != history.TxLive {
		p.open = -1
		return
	}
	r := m.recs[p.cur]
	tryC := e.Op == history.TMTryC
	if r.pendingTryC && !tryC {
		m.dirty = true // the commit role goes
	}
	if tryC {
		r.tryCInv = i
	}
	r.pendingTryC = tryC
	r.roles = rolesOf(r.status, r.pendingTryC)
	p.open = i
}

// respond applies a response: it completes the open operation, whatever
// its name, and a C answering a tryC or any A completes the live
// current transaction. Only a live transaction's record changes, so the
// completed records Fork shares are never written.
func (m *TMMonitor) respond(i int, e history.Event) {
	p := m.proc(e.Proc)
	if p == nil || p.cur < 0 || m.recs[p.cur].status != history.TxLive {
		return // no open invocation, no live transaction to complete
	}
	r := m.recs[p.cur]
	if p.open >= 0 {
		inv := &m.h[p.open]
		p.open = -1
		switch {
		case inv.Op == history.TMStart:
			r.startRes = i
		case inv.Op == history.TMTryC:
			r.pendingTryC = false
			m.dirty = true
		case e.Val == history.Abort:
		case inv.Op == history.TMRead:
			r.steps = append(r.steps, txStep{isRead: true, v: inv.Obj, val: e.Val})
			m.dirty = true
		case inv.Op == history.TMWrite:
			r.steps = append(r.steps, txStep{isRead: false, v: inv.Obj, val: inv.Arg})
		}
	}
	switch {
	case e.Val == history.Abort:
		r.status = history.TxAborted
	case e.Op == history.TMTryC && e.Val == history.Commit:
		r.status = history.TxCommitted
		m.dirty = true
	}
	r.roles = rolesOf(r.status, r.pendingTryC)
}

// OK implements Monitor.
func (m *TMMonitor) OK() bool { return !m.failed }

// Fork implements Monitor. It always allocates: the copy shares the
// immutable history and the finished transactions' records.
func (m *TMMonitor) Fork(Monitor) Monitor {
	c := &TMMonitor{
		h: m.h[:len(m.h):len(m.h)], dig: m.dig, strict: m.strict, rule: m.rule, dirty: m.dirty, failed: m.failed,
		recs:  append([]*txRecord(nil), m.recs...),
		procs: append([]tmProc(nil), m.procs...),
	}
	for _, p := range c.procs {
		if p.cur >= 0 && c.recs[p.cur].status == history.TxLive {
			r := *c.recs[p.cur]
			r.steps = r.steps[:len(r.steps):len(r.steps)]
			c.recs[p.cur] = &r
		}
	}
	return c
}

// Spawn returns the incremental opacity monitor.
func (Opacity) Spawn() Monitor { return NewOpacityMonitor() }

// Spawn returns the incremental strict serializability monitor.
func (StrictSerializability) Spawn() Monitor { return NewStrictSerializabilityMonitor() }

// Spawn returns the incremental property S monitor.
func (PropertyS) Spawn() Monitor { return NewPropertySMonitor() }
