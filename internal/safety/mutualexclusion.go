package safety

import "repro/internal/history"

// Lock object type operation names (shared with internal/mutex).
const (
	LockAcquire = "acquire"
	LockRelease = "release"
)

// MutualExclusion is the lock safety property: no two processes are in the
// critical section simultaneously, where the critical section spans from
// an acquire response to the following release invocation, and only the
// holder may release. Both violations are irrevocable, so the property is
// prefix-closed. The native implementation is the incremental mutexMonitor;
// Holds is the BatchAdapter over it.
type MutualExclusion struct{}

// Name implements Property.
func (MutualExclusion) Name() string { return "mutual-exclusion" }

// Holds implements Property.
func (p MutualExclusion) Holds(h history.History) bool {
	return BatchAdapter{PropName: p.Name(), SpawnFn: p.Spawn}.Holds(h)
}

// Spawn returns the incremental mutual-exclusion monitor.
func (MutualExclusion) Spawn() Monitor { return &mutexMonitor{} }

// mutexMonitor tracks the critical-section holder. Each Step is O(1);
// Fork copies two words.
type mutexMonitor struct {
	holder int
	failed bool
}

// Step implements Monitor.
func (m *mutexMonitor) Step(e history.Event) bool {
	if m.failed {
		return false
	}
	switch {
	case e.Kind == history.KindResponse && e.Op == LockAcquire:
		if m.holder != 0 {
			m.failed = true // two processes in the critical section
			return false
		}
		m.holder = e.Proc
	case e.Kind == history.KindInvoke && e.Op == LockRelease:
		if m.holder != e.Proc {
			m.failed = true // release by a non-holder
			return false
		}
		m.holder = 0
	}
	return true
}

// OK implements Monitor.
func (m *mutexMonitor) OK() bool { return !m.failed }

// Fork implements Monitor. It always allocates.
func (m *mutexMonitor) Fork(Monitor) Monitor {
	return &mutexMonitor{holder: m.holder, failed: m.failed}
}
