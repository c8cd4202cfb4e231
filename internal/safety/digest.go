package safety

import (
	"cmp"
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

// StateDigest implements history.Digester. The TM serialization
// searches re-examine the entire accumulated history on every response,
// so the monitor's residual state IS the history: the digest folds the
// running history digest after the monitor's flags. Exploration
// therefore deduplicates TM states only across schedules that produced
// the identical external history (interleavings that reorder only
// internal steps), which is sound by construction.
func (m *TMMonitor) StateDigest() (uint64, bool) {
	h, ok := m.dig.Sum()
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
// configuration's sequential state and never revisited. Each
// configuration is digested on its own (foldConfig) and the digests are
// folded as a set, so duplicates and the set's order drop out. The
// pending operations are folded by (process, op, object, argument) in
// process order, after a header of the strict and failed flags and the
// operation count.
//
// The one residual dependence on history length is the maxLinOps
// capacity cut-off, which is a function of the per-process operation
// counts; those are part of the simulator's state fingerprint, so equal
// cache keys imply equal capacity too.
func (m *LinMonitor) StateDigest() (uint64, bool) {
	f := history.NewFingerprinter()
	var buf [16]uint64
	cfgs := buf[:0]
	for i := range m.configs {
		f.Restart(history.DigestSeed())
		m.foldConfig(f, &m.configs[i])
		if f.Poisoned() {
			return 0, false
		}
		cfgs = append(cfgs, f.Sum())
	}
	f.Restart(history.DigestSeed())
	f.Str("lin")
	f.Bool(m.strict)
	f.Bool(m.failed)
	f.Int(len(m.ops))
	pending := 0
	for _, pi := range m.pending {
		if pi != 0 {
			pending++
		}
	}
	f.Int(pending)
	for p, pi := range m.pending {
		if pi != 0 {
			op := &m.ops[pi-1]
			f.Int(p)
			f.Str(op.name)
			f.Str(op.obj)
			f.Val(op.arg)
		}
	}
	f.Set(cfgs)
	return f.Sum(), !f.Poisoned()
}

// foldConfig folds one configuration: its spec state, then its promised
// responses keyed by the promising operation's process, in process
// order. Internal operation indices depend on the invocation order the
// history happened to arrive in, so translating them to process ids
// (one pending operation per process) digests equivalent states reached
// through different interleavings identically; the stable sort keeps a
// process's crashed-and-reinvoked operations in invocation order.
func (m *LinMonitor) foldConfig(f *history.Fingerprinter, c *linCfg) {
	f.Val(c.st)
	var buf [8]promise
	byProc := append(buf[:0], c.promises...)
	slices.SortStableFunc(byProc, func(a, b promise) int {
		return cmp.Compare(m.ops[a.idx].proc, m.ops[b.idx].proc)
	})
	for _, pr := range byProc {
		f.Int(m.ops[pr.idx].proc)
		f.Val(pr.val)
	}
}
