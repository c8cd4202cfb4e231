package safety

import "repro/internal/history"

// ConsensusPropose is the operation name of the consensus object type.
const ConsensusPropose = "propose"

// AgreementValidity is the consensus safety property of the paper's
// corollaries: agreement (all processes decide the same value) and validity
// (every decided value was proposed by some process before the decision).
// It is prefix-closed: both violations are irrevocable. The native
// implementation is the incremental avMonitor; Holds is the BatchAdapter
// over it.
type AgreementValidity struct{}

// Name implements Property.
func (AgreementValidity) Name() string { return "agreement+validity" }

// Holds implements Property.
func (p AgreementValidity) Holds(h history.History) bool {
	return BatchAdapter{PropName: p.Name(), SpawnFn: p.Spawn}.Holds(h)
}

// Spawn returns the incremental agreement+validity monitor.
func (AgreementValidity) Spawn() Monitor {
	return &avMonitor{proposed: make(map[history.Value]bool)}
}

// avMonitor tracks the proposed-value set and the (unique) decided value.
// Each Step is O(1); Fork copies the small proposed set.
type avMonitor struct {
	proposed map[history.Value]bool
	decided  history.Value
	have     bool
	failed   bool
}

// Step implements Monitor.
func (m *avMonitor) Step(e history.Event) bool {
	if m.failed {
		return false
	}
	switch {
	case e.Kind == history.KindInvoke && e.Op == ConsensusPropose:
		m.proposed[e.Arg] = true
	case e.Kind == history.KindResponse && e.Op == ConsensusPropose:
		if !m.proposed[e.Val] {
			m.failed = true // validity: value never proposed so far
			return false
		}
		if m.have && m.decided != e.Val {
			m.failed = true // agreement
			return false
		}
		m.decided = e.Val
		m.have = true
	}
	return true
}

// OK implements Monitor.
func (m *avMonitor) OK() bool { return !m.failed }

// Fork implements Monitor. It always allocates.
func (m *avMonitor) Fork(Monitor) Monitor {
	proposed := make(map[history.Value]bool, len(m.proposed))
	for v := range m.proposed {
		proposed[v] = true
	}
	return &avMonitor{proposed: proposed, decided: m.decided, have: m.have, failed: m.failed}
}

// Decisions returns the multiset of decided values per process in h.
func Decisions(h history.History) map[int]history.Value {
	out := make(map[int]history.Value)
	for _, e := range h {
		if e.Kind == history.KindResponse && e.Op == ConsensusPropose {
			out[e.Proc] = e.Val
		}
	}
	return out
}
