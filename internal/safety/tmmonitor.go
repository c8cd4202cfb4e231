package safety

import "repro/internal/history"

// TMMonitor is the incremental form of the TM safety checkers. Opacity
// and strict serializability are defined per-prefix — every prefix ending
// in a response must admit a legal serialization — so the batch checkers
// re-verify every prefix of every history they are handed. The monitor
// exploits that structure: it accumulates the history and runs the
// serialization search exactly once per new response event, so along one
// exploration path each prefix is verified once instead of once per
// descendant. The Section 5.3 timestamp-abort rule is additionally
// re-evaluated on the TM control events that can change it (start
// responses, tryC invocations and responses).
//
// The accumulated history is append-only; Fork clips both copies'
// capacity so a later append by either side reallocates instead of
// clobbering the shared backing array.
type TMMonitor struct {
	h      history.History
	dig    history.HistoryDigest // running digest of h, for StateDigest
	strict bool                  // strict serializability instead of opacity
	rule   bool                  // additionally enforce the Section 5.3 timestamp rule
	failed bool
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
	m.h = append(m.h, e)
	m.dig.Append(e)
	if e.Kind == history.KindResponse {
		recs, ok := buildRecords(m.h)
		if !ok || !serializable(recs, m.strict) {
			m.failed = true
			return false
		}
	}
	if m.rule && m.ruleEvent(e) && !timestampRuleHolds(m.h) {
		m.failed = true
		return false
	}
	return true
}

// ruleEvent reports whether e can change the timestamp-abort verdict: a
// subset qualifies (or gains a committed member) only through start
// responses, tryC invocations and tryC responses.
func (m *TMMonitor) ruleEvent(e history.Event) bool {
	switch e.Op {
	case history.TMStart:
		return e.Kind == history.KindResponse
	case history.TMTryC:
		return true
	}
	return false
}

// OK implements Monitor.
func (m *TMMonitor) OK() bool { return !m.failed }

// Fork implements Monitor.
func (m *TMMonitor) Fork() Monitor {
	m.h = m.h[:len(m.h):len(m.h)]
	return &TMMonitor{h: m.h, dig: m.dig, strict: m.strict, rule: m.rule, failed: m.failed}
}

// Spawn returns the incremental opacity monitor.
func (Opacity) Spawn() Monitor { return NewOpacityMonitor() }

// Spawn returns the incremental strict serializability monitor.
func (StrictSerializability) Spawn() Monitor { return NewStrictSerializabilityMonitor() }

// Spawn returns the incremental property S monitor.
func (PropertyS) Spawn() Monitor { return NewPropertySMonitor() }
