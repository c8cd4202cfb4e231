package safety

import (
	"fmt"
	"math/bits"

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
// Spec states, responses and operations are interned in a table the
// monitor shares with all its forks (linTable), which also memoizes the
// specification's transitions and hash-conses the promise sets. A
// configuration is the pointer-free triple {mask, state id, promise-set
// id}, so the closure search deduplicates by comparing words, a fork
// copies its configurations without write barriers, and a speculative
// step allocates nothing once its transitions and promise edits are
// memoized.
type LinMonitor struct {
	tab *linTable
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
	// Inline backings for pending and slots: with the small process
	// counts of bounded exploration both fit inline, so a fresh fork is
	// one allocation.
	pendInline [8]int
	slotInline [8]linSlot
}

// maxPendingOps is how many operations the monitor can hold pending at
// once: one bit of a configuration's uint64 mask per pending slot.
const maxPendingOps = 64

// linScratch is the transient state of one advance or crashClose call:
// the closure search's stack and seen-set and the rebuilt configuration
// set. Monitors are forked far more often than they are advanced, so
// the scratch lives in the table, where every fork of the lineage
// reuses it under the table's lock, rather than being carried (and
// re-grown) per fork.
type linScratch struct {
	// The seen set is an array of configurations scanned linearly:
	// advances see a handful of configurations, and comparing two words
	// is cheaper than hashing them — the scan stays faster even at the
	// 580 entries exhaustive queueblast reaches at depth 8.
	keys  []linCfg
	stack []linCfg
	next  []linCfg
}

func (sc *linScratch) reset() { sc.keys = sc.keys[:0] }

// markOf reports whether configuration c was already seen, recording it
// if not.
func (sc *linScratch) markOf(c linCfg) bool {
	for _, k := range sc.keys {
		if k == c {
			return true
		}
	}
	sc.keys = append(sc.keys, c)
	return false
}

// linSlot is the operation pending in one slot: its interned operation
// and its invocation order, which ranks a process's slots.
type linSlot struct {
	op  uint32
	inv uint64
}

// linCfg is one configuration: mask has the bit of every pending slot
// the configuration linearized, which are exactly the slots its
// promise set names; st is its spec state's id and proms its promise
// set's id in the monitor's table.
type linCfg struct {
	mask  uint64
	st    uint32
	proms uint32
}

// NewLinMonitor creates the incremental linearizability monitor for spec
// at the empty history, with a fresh table its forks share.
func NewLinMonitor(spec SeqSpec) *LinMonitor {
	t := newLinTable(spec)
	return &LinMonitor{tab: t, configs: []linCfg{{st: t.state(spec.Init())}}}
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
	m.tab.mu.Lock()
	defer m.tab.mu.Unlock()
	switch e.Kind {
	case history.KindInvoke:
		s := m.take(m.tab.op(e))
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
		m.advance(s, m.tab.vals.id(e.Val))
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

// take puts operation op in the lowest free slot and returns that slot.
func (m *LinMonitor) take(op uint32) int {
	if m.used == ^uint64(0) {
		panic(fmt.Sprintf("safety: linearizability monitor: more than %d operations pending at once", maxPendingOps))
	}
	s := bits.TrailingZeros64(^m.used)
	m.used |= uint64(1) << uint(s)
	sl := linSlot{op: op, inv: m.invs}
	m.invs++
	// Slots fill lowest first, so s never lies past the end of the table.
	if s < len(m.slots) {
		m.slots[s] = sl
	} else {
		m.slots = append(m.slots, sl)
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
		if !dedup || !sc.markOf(c) {
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
	t := m.tab
	bit := uint64(1) << uint(idx)
	sc := &t.sc
	sc.reset()
	sc.next = sc.next[:0]
	for _, c := range m.configs {
		if c.mask&bit != 0 {
			// Speculatively linearized before the crash: keep, dropping the
			// promise — the response it committed to will never arrive and
			// nothing can observe it.
			if c.proms = t.edit(c.proms, idx, noPromise); !sc.markOf(c) {
				sc.next = append(sc.next, c)
			}
			continue
		}
		if sc.markOf(c) {
			continue // already reached while closing an earlier source
		}
		sc.stack = append(sc.stack[:0], c)
		for len(sc.stack) > 0 {
			cur := sc.stack[len(sc.stack)-1]
			sc.stack = sc.stack[:len(sc.stack)-1]
			// The operation may vanish: cur survives as-is. Every stacked
			// configuration was fresh when marked, so it is appended exactly
			// once — which also keeps cross-source deduplication lossless
			// (the first discoverer of a shared configuration emitted it).
			sc.next = append(sc.next, cur)
			// Or it linearizes here, with any response.
			for _, tr := range t.apply(cur.st, m.slots[idx].op) {
				if out := (linCfg{mask: cur.mask | bit, st: tr.next, proms: cur.proms}); !sc.markOf(out) {
					sc.next = append(sc.next, out)
				}
			}
			m.speculate(sc, cur, bit)
		}
	}
	m.free(sc, idx, true)
}

// speculate pushes onto sc.stack every fresh configuration cur reaches
// by speculatively linearizing one pending operation other than the
// one with bit, promising the response it linearized with.
func (m *LinMonitor) speculate(sc *linScratch, cur linCfg, bit uint64) {
	t := m.tab
	for rest := m.used &^ cur.mask &^ bit; rest != 0; rest &= rest - 1 {
		j := bits.TrailingZeros64(rest)
		jbit := uint64(1) << uint(j)
		for _, tr := range t.apply(cur.st, m.slots[j].op) {
			if nc := (linCfg{mask: cur.mask | jbit, st: tr.next, proms: t.edit(cur.proms, j, tr.resp)}); !sc.markOf(nc) {
				sc.stack = append(sc.stack, nc)
			}
		}
	}
}

// advance consumes the response, with value id val, of the operation in
// slot idx: configurations that already linearized it keep only if
// they promised this response; configurations that did not must
// linearize it now, possibly after speculatively linearizing other
// pending operations. Every surviving configuration then holds idx, and
// the slot is freed.
//
// One seen-set serves the whole response: intermediate configurations
// (mask without idx) and output configurations (mask with idx) occupy
// disjoint key spaces, and an intermediate configuration reached from
// two source configurations closes over identically, so cross-source
// deduplication is sound and saves repeated work.
func (m *LinMonitor) advance(idx int, val uint32) {
	t := m.tab
	bit := uint64(1) << uint(idx)
	sc := &t.sc
	sc.reset()
	sc.next = sc.next[:0]
	for _, c := range m.configs {
		if c.mask&bit != 0 {
			// Speculatively linearized earlier: the promise must match.
			if pv, ok := t.promised(c.proms, idx); !ok || pv != val {
				continue
			}
			if c.proms = t.edit(c.proms, idx, noPromise); !sc.markOf(c) {
				sc.next = append(sc.next, c)
			}
			continue
		}
		m.closeOver(sc, c, idx, val)
	}
	m.free(sc, idx, false)
}

// closeOver explores every way to reach a configuration containing idx
// from c by linearizing currently pending operations, with idx last.
// Orders placing further pending operations after idx are not explored:
// they remain reachable lazily from the produced configurations. Fresh
// output configurations are appended to sc.next.
func (m *LinMonitor) closeOver(sc *linScratch, c linCfg, idx int, val uint32) {
	if sc.markOf(c) {
		return // an earlier source configuration already closed over c
	}
	bit := uint64(1) << uint(idx)
	sc.stack = append(sc.stack[:0], c)
	for len(sc.stack) > 0 {
		cur := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		// Linearize idx now, closing this branch.
		for _, tr := range m.tab.apply(cur.st, m.slots[idx].op) {
			if tr.resp != val {
				continue
			}
			if out := (linCfg{mask: cur.mask | bit, st: tr.next, proms: cur.proms}); !sc.markOf(out) {
				sc.next = append(sc.next, out)
			}
		}
		// Or speculatively linearize another pending operation first.
		m.speculate(sc, cur, bit)
	}
}

// OK implements Monitor.
func (m *LinMonitor) OK() bool { return !m.failed }

// Fork implements Monitor. The fork shares the table; everything else
// is copied, and holds no pointers. A LinMonitor dst is overwritten, so
// its slot, pending and configuration backings serve the copy.
func (m *LinMonitor) Fork(dst Monitor) Monitor {
	f, _ := dst.(*LinMonitor)
	if f == nil {
		f = &LinMonitor{}
		f.pending, f.slots = f.pendInline[:0], f.slotInline[:0]
	}
	f.tab, f.strict, f.failed = m.tab, m.strict, m.failed
	f.used, f.invs = m.used, m.invs
	f.pending = append(f.pending[:0], m.pending...)
	f.slots = append(f.slots[:0], m.slots...)
	f.configs = append(f.configs[:0], m.configs...)
	return f
}
