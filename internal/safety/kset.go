package safety

import (
	"strconv"

	"repro/internal/history"
)

// KSetAgreement is the k-set agreement safety property (the paper's
// Section 1 application context, via Borowsky-Gafni [3]): processes decide
// at most k distinct values, and every decided value was proposed by some
// process before the decision. k = 1 is consensus agreement+validity. The
// native implementation is the incremental ksetMonitor; Holds is the
// BatchAdapter over it.
type KSetAgreement struct {
	K int
}

// Name implements Property.
func (p KSetAgreement) Name() string {
	if p.K == 1 {
		return "agreement+validity"
	}
	return "k-set-agreement(k=" + strconv.Itoa(p.K) + ")"
}

// Holds implements Property.
func (p KSetAgreement) Holds(h history.History) bool {
	return BatchAdapter{PropName: p.Name(), SpawnFn: p.Spawn}.Holds(h)
}

// Spawn returns the incremental k-set agreement monitor.
func (p KSetAgreement) Spawn() Monitor {
	return &ksetMonitor{
		k:        p.K,
		proposed: make(map[history.Value]bool),
		decided:  make(map[history.Value]bool),
	}
}

// ksetMonitor tracks the proposed and decided value sets. Each Step is
// O(1); Fork copies the two small sets.
type ksetMonitor struct {
	k                 int
	proposed, decided map[history.Value]bool
	failed            bool
}

// Step implements Monitor.
func (m *ksetMonitor) Step(e history.Event) bool {
	if m.failed {
		return false
	}
	switch {
	case e.Kind == history.KindInvoke && e.Op == ConsensusPropose:
		m.proposed[e.Arg] = true
	case e.Kind == history.KindResponse && e.Op == ConsensusPropose:
		if !m.proposed[e.Val] {
			m.failed = true // validity
			return false
		}
		m.decided[e.Val] = true
		if len(m.decided) > m.k {
			m.failed = true // k-agreement
			return false
		}
	}
	return true
}

// OK implements Monitor.
func (m *ksetMonitor) OK() bool { return !m.failed }

// Fork implements Monitor. It always allocates.
func (m *ksetMonitor) Fork(Monitor) Monitor {
	proposed := make(map[history.Value]bool, len(m.proposed))
	for v := range m.proposed {
		proposed[v] = true
	}
	decided := make(map[history.Value]bool, len(m.decided))
	for v := range m.decided {
		decided[v] = true
	}
	return &ksetMonitor{k: m.k, proposed: proposed, decided: decided, failed: m.failed}
}
