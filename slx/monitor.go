package slx

import (
	"fmt"

	"repro/internal/history"
	"repro/slx/hist"
)

// Monitor is the incremental, forkable judge of a safety property: it
// consumes a history one event at a time, reports a Verdict on demand,
// and forks at schedule branch points so exhaustive exploration never
// replays a prefix's events into a fresh checker.
//
// The contract mirrors prefix closure (Definition 3.1): once Step
// observes a violation the verdict is sticky — every further Step
// returns false. Fork must return an independent monitor: stepping
// either copy never affects the other. Monitors judge the history alone;
// the caller (Checker.Explore) attaches the witness schedule to failing
// verdicts.
type Monitor interface {
	// Step consumes the next history event and reports whether the
	// property still holds on the consumed prefix. A false return is
	// permanent.
	Step(e hist.Event) bool
	// Verdict reports the current verdict. Witness is left for the
	// caller to fill in (a monitor sees events, not schedules).
	Verdict() Verdict
	// Fork returns an independent monitor with this monitor's state.
	Fork() Monitor
}

// Digester is the optional hook a Monitor implements to make explored
// states cacheable under WithStateCache: StateDigest returns a
// canonical 64-bit digest of the monitor's residual state — everything
// its future Step verdicts can depend on — such that two monitors with
// equal digests accept and reject exactly the same event suffixes.
// ok=false marks the current state undigestable; the surrounding prefix
// is then neither looked up in nor stored to the state cache. Every
// property in slx/check digests; a custom Monitor without the hook
// simply makes explorations over it uncacheable, never unsound.
type Digester = history.Digester

// BatchMonitor adapts a prefix-monotone history predicate into a Monitor
// by accumulating the history and re-judging it on every step. It is the
// monitor SafetyFunc spawns for its predicate, and the way to give a
// custom safety Property a Spawn (Explore rejects a nil one); native
// monitors avoid the per-step re-scan.
func BatchMonitor(name string, holds func(h hist.History) bool) Monitor {
	return &batchMonitor{name: name, holds: holds}
}

// batchMonitor re-runs the batch predicate on the accumulated history.
type batchMonitor struct {
	name  string
	holds func(h hist.History) bool
	h     hist.History
	dig   history.LazyDigest // digest of h, folded when StateDigest asks
	// failedAt is the 1-based length of the first violating prefix, 0
	// while the property holds.
	failedAt int
}

// Step implements Monitor.
func (m *batchMonitor) Step(e hist.Event) bool {
	if m.failedAt > 0 {
		return false
	}
	m.h = append(m.h, e)
	if !m.holds(m.h) {
		m.failedAt = len(m.h)
		return false
	}
	return true
}

// Verdict implements Monitor.
func (m *batchMonitor) Verdict() Verdict {
	v := Verdict{Property: m.name, Kind: Safety, Holds: m.failedAt == 0}
	if v.Holds {
		v.Reason = fmt.Sprintf("holds after %d events", len(m.h))
	} else {
		v.Reason = fmt.Sprintf("violated at event %d/%d: %s", m.failedAt, len(m.h), m.h[m.failedAt-1])
	}
	return v
}

// Fork implements Monitor.
func (m *batchMonitor) Fork() Monitor {
	// The fork's view is clipped, so its first append reallocates; the
	// parent only ever appends past it, in place.
	h := m.h[:len(m.h):len(m.h)]
	return &batchMonitor{name: m.name, holds: m.holds, h: h, dig: m.dig, failedAt: m.failedAt}
}

// StateDigest implements Digester. The batch monitor re-judges its
// whole accumulated history on every step, so its residual state IS the
// history: the digest is a canonical encoding of the event sequence,
// folded from a cursor over the events added since the last call
// (history.LazyDigest), so a run that never asks — sampling, or
// exploration without the state cache — never pays for it. The state
// cache deduplicates only across schedules that produced the identical
// external history, which is sound for any prefix-monotone predicate,
// however history-dependent.
func (m *batchMonitor) StateDigest() (uint64, bool) {
	h, ok := m.dig.Sum(m.h)
	f := history.NewFingerprinter()
	f.Str("batch")
	f.Str(m.name)
	f.Uint64(h)
	return f.Sum(), ok
}

// MonitoredSafety builds a safety Property with a native incremental
// monitor: Check judges batch executions through holds exactly like
// SafetyFunc (holds must be prefix-monotone), while Explore spawns
// monitors from spawn and feeds them events once per DFS edge. The
// catalog in slx/check builds every safety property this way.
func MonitoredSafety(name string, holds func(h hist.History) bool, spawn func() Monitor) Property {
	p := SafetyFunc(name, holds).(*funcProperty)
	p.spawn = spawn
	return p
}
