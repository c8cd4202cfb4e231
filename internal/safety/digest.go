package safety

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/history"
)

// The monitors' residual-state digests (history.Digester). Every one is
// folded by the canonical state encoder, history.Fingerprinter — the
// encoder behind the simulator's configuration fingerprint — and starts
// with a family tag, so monitors of different families never share an
// identity. Sets are folded order-independently (Fingerprinter.Set)
// over per-member digests, so the order state was accumulated in never
// leaks into a digest.

// valueSet digests each member of set on its own, restarting f at the
// seed per member, and returns the words for Fingerprinter.Set; ok=false
// when some member cannot be canonically encoded (the monitor is then
// undigestable: its prefix becomes uncacheable, never unsound).
func valueSet(f *history.Fingerprinter, set map[history.Value]bool) ([]uint64, bool) {
	words := make([]uint64, 0, len(set))
	for v := range set {
		f.Restart(history.DigestSeed())
		f.Val(v)
		if f.Poisoned() {
			return nil, false
		}
		words = append(words, f.Sum())
	}
	return words, true
}

// StateDigest implements history.Digester: the agreement+validity
// verdict depends only on the proposed-value set and the decided value.
func (m *avMonitor) StateDigest() (uint64, bool) {
	f := history.NewFingerprinter()
	proposed, ok := valueSet(f, m.proposed)
	if !ok {
		return 0, false
	}
	f.Restart(history.DigestSeed())
	f.Str("av")
	f.Set(proposed)
	f.Bool(m.have)
	f.Bool(m.failed)
	f.Val(m.decided)
	return f.Sum(), !f.Poisoned()
}

// StateDigest implements history.Digester: the k-set verdict depends
// only on the proposed and decided value sets (and k).
func (m *ksetMonitor) StateDigest() (uint64, bool) {
	f := history.NewFingerprinter()
	proposed, ok := valueSet(f, m.proposed)
	if !ok {
		return 0, false
	}
	decided, ok := valueSet(f, m.decided)
	if !ok {
		return 0, false
	}
	f.Restart(history.DigestSeed())
	f.Str("kset")
	f.Int(m.k)
	f.Bool(m.failed)
	f.Set(proposed)
	f.Set(decided)
	return f.Sum(), true
}

// StateDigest implements history.Digester: the mutual-exclusion verdict
// depends only on the current critical-section holder.
func (m *mutexMonitor) StateDigest() (uint64, bool) {
	f := history.NewFingerprinter()
	f.Str("mutex")
	f.Int(m.holder)
	f.Bool(m.failed)
	return f.Sum(), true
}

// StateDigest implements history.Digester. The TM monitor's records
// summarize its history only up to what the serialization search reads:
// program-order steps, roles and real-time predecessors, but not which
// interleaving of the same external events produced them. The digest
// does not try to canonicalize that; it folds the history itself after
// the monitor's flags, so exploration deduplicates TM states only across
// schedules that produced the identical external history (interleavings
// that reorder only internal steps), which is sound by construction. The
// history digest is folded lazily (history.LazyDigest), so a run that
// never asks for it, such as sampling or exploration without the state
// cache, never pays for the encoding.
func (m *TMMonitor) StateDigest() (uint64, bool) {
	h, ok := m.dig.Sum(m.h)
	f := history.NewFingerprinter()
	f.Str("tm")
	f.Bool(m.strict)
	f.Bool(m.rule)
	f.Bool(m.failed)
	f.Uint64(h)
	return f.Sum(), ok
}

// StateDigest implements history.Digester. The linearizability
// monitor's future verdicts depend on its configuration set and the
// pending operations; completed operations are frozen inside every
// configuration's sequential state and never revisited. Slot numbers
// depend on the interleaving that filled them, so none reaches the
// digest: the occupied slots are ranked by (process, invocation order),
// and everything is folded by rank. The header is the strict and failed
// flags, then every pending operation in rank order — process, whether
// it is its process's live operation (the one a response resolves),
// op, object and argument. Each configuration is digested on its own
// (linTable.configDigest, from its state's cached fingerprint) and the
// digests are folded as a set, so duplicates and the set's order drop
// out. The table's ids are local to one monitor lineage, so only the
// content they stand for is folded: digests of monitors with different
// tables, such as two workers' or two jobs' sharing a visited tier,
// agree on equal states.
func (m *LinMonitor) StateDigest() (uint64, bool) {
	t := m.tab
	t.mu.Lock()
	defer t.mu.Unlock()
	var obuf [16]int
	order := obuf[:0]
	for rest := m.used; rest != 0; rest &= rest - 1 {
		order = append(order, bits.TrailingZeros64(rest))
	}
	slices.SortFunc(order, func(a, b int) int {
		x, y := &m.slots[a], &m.slots[b]
		return cmp.Or(cmp.Compare(t.ops.items[x.op].proc, t.ops.items[y.op].proc), cmp.Compare(x.inv, y.inv))
	})
	var rank [maxPendingOps]uint8 // slot → rank
	for r, s := range order {
		rank[s] = uint8(r)
	}
	var buf [16]uint64
	cfgs := buf[:0]
	for _, c := range m.configs {
		d, ok := t.configDigest(c, &rank)
		if !ok {
			return 0, false
		}
		cfgs = append(cfgs, d)
	}
	f := t.f
	f.Restart(history.DigestSeed())
	f.Str("lin")
	f.Bool(m.strict)
	f.Bool(m.failed)
	f.Int(len(order))
	for _, s := range order {
		op := &t.ops.items[m.slots[s].op]
		f.Int(op.proc)
		f.Bool(op.proc >= 0 && op.proc < len(m.pending) && m.pending[op.proc] == s+1)
		f.Str(op.name)
		f.Str(op.obj)
		f.Val(op.arg)
	}
	f.Set(cfgs)
	return f.Sum(), !f.Poisoned()
}
