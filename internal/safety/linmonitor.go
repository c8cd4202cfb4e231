package safety

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/history"
)

// LinMonitor is the incremental linearizability checker: a just-in-time
// Wing–Gong search that carries its partial-order state along the history
// instead of re-solving the whole prefix at every extension. It is the
// one linearizability decision procedure: Linearizable and
// StrictLinearizable replay a history through it.
//
// The state is a set of configurations. Each configuration witnesses one
// way the operations seen so far can be linearized: a mask of the
// pending operations it has linearized, the sequential-specification
// state that every completed operation and those pending ones produce,
// and the promised responses of the pending ones, which were linearized
// speculatively before their response arrived. Two invariants are
// maintained after every consumed event:
//
//  1. every completed operation is linearized in every configuration
//     (completed operations linearize no later than their response —
//     the real-time order of linearizability), its effect folded into
//     the state, and
//  2. the configuration set is exactly the set of distinct
//     (mask, state, promises) values witnessed by some legal sequential
//     order of the completed operations and the mask's operations that
//     respects real-time order and matches every completed operation's
//     response.
//
// Pending operations are linearized lazily: only when a response forces
// operations before it. Any linearization placing a pending operation
// later is reachable from a smaller configuration, so laziness loses no
// witnesses; the history is linearizable iff the set is non-empty. An
// invocation is O(1) — the configuration set is untouched — and a
// response closes the set over the currently pending operations only,
// so the cost of an event is independent of the history's length.
//
// Masks and promises index pending slots, not positions in the history:
// an invocation takes the lowest free slot, and the slot frees once its
// operation is resolved — at its response, when every configuration has
// linearized it, or under strict linearizability at the crash that
// closes it. Freeing clears the slot's bit in every configuration, so
// mask width bounds how many operations are pending at once
// (maxPendingOps), not how long the history is.
//
// The representation is tuned for the exploration hot loop:
// configurations are plain values in a monitor-owned slice (no
// per-configuration heap object); promises are short sorted slices,
// deduplicated by structural comparison (no key building); and the
// search's stack, seen-set and output buffer come from a shared pool, so
// the constant forking of exploration never re-grows them.
type LinMonitor struct {
	spec  SeqSpec
	aspec AppendSpec // spec's allocation-free form, nil if not provided
	// strict selects strict (crash-aware) linearizability: an operation
	// pending when its process crashes must linearize before the crash
	// point or never. The monitor then closes the operation at the crash
	// event — each configuration branches into "the operation vanished"
	// and "it linearized before the crash, with any response" — and frees
	// its slot so no later event can linearize it. With strict false a
	// crashed operation stays pending forever and may linearize at any
	// later point, which is plain linearizability on crash-free suffixes
	// but too weak once crashed processes recover: a recovered process
	// must observe only effects that were durable at its crash.
	strict bool
	// slots[s] is the operation pending in slot s; used has bit s set iff
	// slot s is occupied (entries of free slots are stale). A crashed
	// operation keeps its slot for good under plain linearizability, so
	// at most procs + recoveries slots are ever occupied.
	slots   []linSlot
	used    uint64
	invs    uint64 // invocations consumed; orders one process's slots
	pending []int  // proc → slot+1 of its live operation (0 = none)
	configs []linCfg
	failed  bool
	// Inline backings for pending and slots: exploration forks a monitor
	// per branch, and with the small process counts of bounded
	// exploration both fit inline, so a pooled Fork copies into them
	// instead of allocating.
	pendInline [8]int
	slotInline [8]linSlot
}

// maxPendingOps is how many operations the monitor can hold pending at
// once: one bit of a configuration's uint64 mask per pending slot.
const maxPendingOps = 64

// linScratch is the transient state of one advance call: the closure
// search's stack and seen-set, the rebuilt configuration set, and the
// spec's transition buffer. Monitors are forked far more often than they
// are advanced, so scratch is pooled globally rather than carried (and
// re-grown) per fork; advance holds one scratch for its full duration,
// which keeps pool use safe under parallel exploration.
type linScratch struct {
	// The seen set is an array of configurations scanned linearly:
	// advances see a handful of configurations, and structural
	// comparison (early-exit on the mask word, promise slices shared
	// rather than copied) is far cheaper than building and hashing
	// interface-bearing map keys — the scan stays faster even at the
	// 580 entries exhaustive queueblast reaches at depth 8.
	keys  []linCfg
	stack []linCfg
	next  []linCfg
	trbuf []Transition
}

func (sc *linScratch) reset() { sc.keys = sc.keys[:0] }

// markOf reports whether configuration (mask, st, proms) was already
// seen, recording it if not. The recorded entry shares proms.
func (sc *linScratch) markOf(mask uint64, st State, proms []promise) bool {
	for i := range sc.keys {
		k := &sc.keys[i]
		if k.mask == mask && len(k.promises) == len(proms) && k.st == st && promEq(k.promises, proms) {
			return true
		}
	}
	sc.keys = append(sc.keys, linCfg{mask: mask, st: st, promises: proms})
	return false
}

// markWith is markOf for (mask, st, proms+{idx→val}) — the extended
// promise slice is only materialized when the configuration is fresh,
// and is returned for the caller to attach (nil when already seen).
func (sc *linScratch) markWith(mask uint64, st State, proms []promise, idx int32, val history.Value) ([]promise, bool) {
	for i := range sc.keys {
		k := &sc.keys[i]
		if k.mask == mask && len(k.promises) == len(proms)+1 && k.st == st && promEqWith(k.promises, proms, idx, val) {
			return nil, true
		}
	}
	np := insertPromise(proms, idx, val)
	sc.keys = append(sc.keys, linCfg{mask: mask, st: st, promises: np})
	return np, false
}

// markWithout is markOf for (mask, st, proms−{idx}), with markWith's
// materialize-only-when-fresh contract.
func (sc *linScratch) markWithout(mask uint64, st State, proms []promise, idx int32) ([]promise, bool) {
	for i := range sc.keys {
		k := &sc.keys[i]
		if k.mask == mask && len(k.promises) == len(proms)-1 && k.st == st && promEqWithout(k.promises, proms, idx) {
			return nil, true
		}
	}
	np := removePromise(proms, idx)
	sc.keys = append(sc.keys, linCfg{mask: mask, st: st, promises: np})
	return np, false
}

// promEq reports a == b elementwise; both are sorted by idx and equal
// in length.
func promEq(a, b []promise) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// promEqWith reports stored == base+{idx→val} (merged in sorted order)
// without materializing the extension; len(stored) == len(base)+1.
func promEqWith(stored, base []promise, idx int32, val history.Value) bool {
	ins := promise{idx: idx, val: val}
	j, used := 0, false
	for i := range stored {
		var want promise
		if !used && (j >= len(base) || idx < base[j].idx) {
			want, used = ins, true
		} else {
			want = base[j]
			j++
		}
		if stored[i] != want {
			return false
		}
	}
	return used && j == len(base)
}

// promEqWithout reports stored == base−{idx}; len(stored) == len(base)−1.
func promEqWithout(stored, base []promise, idx int32) bool {
	i := 0
	for _, p := range base {
		if p.idx == idx {
			continue
		}
		if i >= len(stored) || stored[i] != p {
			return false
		}
		i++
	}
	return i == len(stored)
}

var scratchPool = sync.Pool{New: func() any {
	return &linScratch{}
}}

// linSlot is the operation pending in one slot.
type linSlot struct {
	proc      int
	name, obj string
	arg       history.Value
	inv       uint64 // invocation order, which ranks a process's slots
}

// promise is one speculative linearization: the pending operation's slot
// and the response the chosen transition committed it to.
type promise struct {
	idx int32
	val history.Value
}

// linCfg is one immutable configuration: mask has the bit of every
// pending slot the configuration linearized, which are exactly the slots
// its promises name. promises is sorted by idx and never mutated once
// attached, so configurations share promise slices.
type linCfg struct {
	mask     uint64
	st       State
	promises []promise
}

// insertPromise returns proms extended with idx→val, sorted (copy;
// promise slices are immutable once attached to a configuration).
func insertPromise(proms []promise, idx int32, val history.Value) []promise {
	out := make([]promise, 0, len(proms)+1)
	i := 0
	for ; i < len(proms) && proms[i].idx < idx; i++ {
		out = append(out, proms[i])
	}
	out = append(out, promise{idx: idx, val: val})
	return append(out, proms[i:]...)
}

// removePromise returns proms with idx removed (copy, nil when empty).
func removePromise(proms []promise, idx int32) []promise {
	if len(proms) <= 1 {
		return nil
	}
	out := make([]promise, 0, len(proms)-1)
	for _, p := range proms {
		if p.idx != idx {
			out = append(out, p)
		}
	}
	return out
}

// lookupPromise returns the promised response for idx, if any.
func lookupPromise(proms []promise, idx int32) (history.Value, bool) {
	for _, p := range proms {
		if p.idx == idx {
			return p.val, true
		}
	}
	return nil, false
}

// NewLinMonitor creates the incremental linearizability monitor for spec
// at the empty history.
func NewLinMonitor(spec SeqSpec) *LinMonitor {
	m := &LinMonitor{
		spec:    spec,
		configs: []linCfg{{mask: 0, st: spec.Init()}},
	}
	m.aspec, _ = spec.(AppendSpec)
	return m
}

// NewStrictLinMonitor creates the crash-aware (strict linearizability)
// monitor for spec: operations pending at their process's crash either
// linearize before the crash point or vanish. See the strict field.
func NewStrictLinMonitor(spec SeqSpec) *LinMonitor {
	m := NewLinMonitor(spec)
	m.strict = true
	return m
}

// Step implements Monitor. It panics when an invocation would make more
// than maxPendingOps operations pending at once.
func (m *LinMonitor) Step(e history.Event) bool {
	if m.failed {
		return false
	}
	switch e.Kind {
	case history.KindInvoke:
		s := m.take(e)
		if e.Proc >= 0 {
			for len(m.pending) <= e.Proc {
				m.pending = append(m.pending, 0)
			}
			m.pending[e.Proc] = s + 1
		}
	case history.KindResponse:
		if e.Proc < 0 || e.Proc >= len(m.pending) || m.pending[e.Proc] == 0 {
			return true // stray response; well-formed histories never produce one
		}
		s := m.pending[e.Proc] - 1
		m.pending[e.Proc] = 0
		m.advance(s, e.Val)
		if len(m.configs) == 0 {
			m.failed = true
			return false
		}
	case history.KindCrash:
		// Non-strict: a crashed process's operation stays pending — it may
		// take effect or not, at any point, which is exactly how pending
		// operations are treated. Strict: the operation is closed at the
		// crash (linearize now-or-earlier with any response, or vanish).
		if m.strict && e.Proc >= 0 && e.Proc < len(m.pending) && m.pending[e.Proc] != 0 {
			s := m.pending[e.Proc] - 1
			m.pending[e.Proc] = 0
			m.crashClose(s)
		}
	case history.KindRecover:
		// Recovery introduces no operation: the recovered process's next
		// invocation is an ordinary fresh operation.
	}
	return true
}

// take puts the operation e invokes in the lowest free slot and returns
// that slot.
func (m *LinMonitor) take(e history.Event) int {
	if m.used == ^uint64(0) {
		panic(fmt.Sprintf("safety: linearizability monitor: more than %d operations pending at once", maxPendingOps))
	}
	s := bits.TrailingZeros64(^m.used)
	m.used |= uint64(1) << uint(s)
	op := linSlot{proc: e.Proc, name: e.Op, obj: e.Obj, arg: e.Arg, inv: m.invs}
	m.invs++
	// Slots fill lowest first, so s never lies past the end of the table.
	if s < len(m.slots) {
		m.slots[s] = op
	} else {
		m.slots = append(m.slots, op)
	}
	return s
}

// free releases slot s, whose operation every configuration in sc.next
// has resolved: sc.next becomes the configuration set with s's bit
// cleared. dedup drops configurations that become equal, which happens
// only when some configurations lack the bit.
func (m *LinMonitor) free(sc *linScratch, s int, dedup bool) {
	bit := uint64(1) << uint(s)
	m.used &^= bit
	sc.reset()
	m.configs = m.configs[:0]
	for _, c := range sc.next {
		c.mask &^= bit
		if !dedup || !sc.markOf(c.mask, c.st, c.promises) {
			m.configs = append(m.configs, c)
		}
	}
}

// crashClose consumes the crash of a process with the operation in slot
// idx pending: every configuration branches into the operation vanishing
// (the configuration survives unchanged) and linearizing before the
// crash point — possibly after speculatively linearizing other pending
// operations, with any response, since no response event will ever
// check it. The slot is then freed, so no later event can linearize the
// operation: that is the strict-linearizability cutoff. A configuration
// that linearized it and one where it vanished become equal if they
// agree on the rest, so freeing deduplicates. Every configuration
// survives in some form, so the monitor never fails at a crash event.
func (m *LinMonitor) crashClose(idx int) {
	bit := uint64(1) << uint(idx)
	sc := scratchPool.Get().(*linScratch)
	sc.reset()
	sc.next = sc.next[:0]
	for i := range m.configs {
		c := &m.configs[i]
		if c.mask&bit != 0 {
			// Speculatively linearized before the crash: keep, dropping the
			// promise — the response it committed to will never arrive and
			// nothing can observe it.
			if np, dup := sc.markWithout(c.mask, c.st, c.promises, int32(idx)); !dup {
				sc.next = append(sc.next, linCfg{mask: c.mask, st: c.st, promises: np})
			}
			continue
		}
		if sc.markOf(c.mask, c.st, c.promises) {
			continue // already reached while closing an earlier source
		}
		sc.stack = append(sc.stack[:0], *c)
		for len(sc.stack) > 0 {
			cur := sc.stack[len(sc.stack)-1]
			sc.stack = sc.stack[:len(sc.stack)-1]
			// The operation may vanish: cur survives as-is. Every stacked
			// configuration was fresh when marked, so it is appended exactly
			// once — which also keeps cross-source deduplication lossless
			// (the first discoverer of a shared configuration emitted it).
			sc.next = append(sc.next, cur)
			// Or it linearizes here, with any response.
			for _, tr := range m.apply(sc, cur.st, &m.slots[idx]) {
				if !sc.markOf(cur.mask|bit, tr.Next, cur.promises) {
					sc.next = append(sc.next, linCfg{mask: cur.mask | bit, st: tr.Next, promises: cur.promises})
				}
			}
			// Or another pending operation speculatively linearizes first.
			for rest := m.used &^ cur.mask &^ bit; rest != 0; rest &= rest - 1 {
				j := bits.TrailingZeros64(rest)
				jbit := uint64(1) << uint(j)
				for _, tr := range m.apply(sc, cur.st, &m.slots[j]) {
					np, dup := sc.markWith(cur.mask|jbit, tr.Next, cur.promises, int32(j), tr.Resp)
					if dup {
						continue
					}
					sc.stack = append(sc.stack, linCfg{mask: cur.mask | jbit, st: tr.Next, promises: np})
				}
			}
		}
	}
	m.free(sc, idx, true)
	scratchPool.Put(sc)
}

// apply enumerates spec transitions for op at st, through the spec's
// append form into pooled scratch when available. The returned slice is
// invalidated by the next apply call — callers finish iterating before
// applying again.
func (m *LinMonitor) apply(sc *linScratch, st State, op *linSlot) []Transition {
	if m.aspec != nil {
		sc.trbuf = m.aspec.ApplyAppend(sc.trbuf[:0], st, op.proc, op.name, op.obj, op.arg)
		return sc.trbuf
	}
	return m.spec.Apply(st, op.proc, op.name, op.obj, op.arg)
}

// advance consumes the response of the operation in slot idx:
// configurations that already linearized it keep only if they promised
// this response; configurations that did not must linearize it now,
// possibly after speculatively linearizing other pending operations.
// Every surviving configuration then holds idx, and the slot is freed.
//
// One seen-set serves the whole response: intermediate configurations
// (mask without idx) and output configurations (mask with idx) occupy
// disjoint key spaces, and an intermediate configuration reached from
// two source configurations closes over identically, so cross-source
// deduplication is sound and saves repeated work.
func (m *LinMonitor) advance(idx int, val history.Value) {
	bit := uint64(1) << uint(idx)
	sc := scratchPool.Get().(*linScratch)
	sc.reset()
	sc.next = sc.next[:0]
	for i := range m.configs {
		c := &m.configs[i]
		if c.mask&bit != 0 {
			// Speculatively linearized earlier: the promise must match.
			pv, ok := lookupPromise(c.promises, int32(idx))
			if !ok || pv != val {
				continue
			}
			if np, dup := sc.markWithout(c.mask, c.st, c.promises, int32(idx)); !dup {
				sc.next = append(sc.next, linCfg{mask: c.mask, st: c.st, promises: np})
			}
			continue
		}
		m.closeOver(sc, c, idx, val)
	}
	m.free(sc, idx, false)
	scratchPool.Put(sc)
}

// closeOver explores every way to reach a configuration containing idx
// from c by linearizing currently pending operations, with idx last.
// Orders placing further pending operations after idx are not explored:
// they remain reachable lazily from the produced configurations. Fresh
// output configurations are appended to sc.next.
func (m *LinMonitor) closeOver(sc *linScratch, c *linCfg, idx int, val history.Value) {
	if sc.markOf(c.mask, c.st, c.promises) {
		return // an earlier source configuration already closed over c
	}
	bit := uint64(1) << uint(idx)
	sc.stack = append(sc.stack[:0], *c)
	for len(sc.stack) > 0 {
		cur := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		// Linearize idx now, closing this branch.
		for _, tr := range m.apply(sc, cur.st, &m.slots[idx]) {
			if tr.Resp != val {
				continue
			}
			if !sc.markOf(cur.mask|bit, tr.Next, cur.promises) {
				sc.next = append(sc.next, linCfg{mask: cur.mask | bit, st: tr.Next, promises: cur.promises})
			}
		}
		// Or speculatively linearize another pending operation first.
		for rest := m.used &^ cur.mask &^ bit; rest != 0; rest &= rest - 1 {
			j := bits.TrailingZeros64(rest)
			jbit := uint64(1) << uint(j)
			for _, tr := range m.apply(sc, cur.st, &m.slots[j]) {
				np, dup := sc.markWith(cur.mask|jbit, tr.Next, cur.promises, int32(j), tr.Resp)
				if dup {
					continue
				}
				sc.stack = append(sc.stack, linCfg{mask: cur.mask | jbit, st: tr.Next, promises: np})
			}
		}
	}
}

// OK implements Monitor.
func (m *LinMonitor) OK() bool { return !m.failed }

// linPool recycles released monitors back into Fork: exploration forks
// one monitor per branch and releases it when the branch's subtree is
// done, so steady-state forking reuses the slot, pending and configs
// backings instead of allocating.
var linPool = sync.Pool{New: func() any { return new(LinMonitor) }}

// Fork implements Monitor.
func (m *LinMonitor) Fork() Monitor {
	f := linPool.Get().(*LinMonitor)
	f.spec, f.aspec, f.strict, f.failed = m.spec, m.aspec, m.strict, m.failed
	f.used, f.invs = m.used, m.invs
	if f.pending == nil {
		f.pending = f.pendInline[:0]
	}
	if f.slots == nil {
		f.slots = f.slotInline[:0]
	}
	f.pending = append(f.pending[:0], m.pending...)
	f.slots = append(f.slots[:0], m.slots...)
	f.configs = append(f.configs[:0], m.configs...)
	return f
}

// Release implements Releaser: the fork's branch is fully explored, so
// its backings can serve a later Fork.
func (m *LinMonitor) Release() { linPool.Put(m) }
