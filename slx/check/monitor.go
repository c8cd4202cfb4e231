package check

import (
	"fmt"

	"repro/internal/safety"
	"repro/slx"
	"repro/slx/hist"
)

// safetyMonitor adapts a native internal/safety.Monitor to slx.Monitor,
// tracking the event position so failing verdicts pinpoint the violating
// event.
type safetyMonitor struct {
	name   string
	inner  safety.Monitor
	events int
	failAt int // 1-based event index of the violation, 0 while holding
	failEv hist.Event
}

// wrapMonitor wraps a native monitor under the property name.
func wrapMonitor(name string, inner safety.Monitor) slx.Monitor {
	return &safetyMonitor{name: name, inner: inner}
}

// Step implements slx.Monitor.
func (m *safetyMonitor) Step(e hist.Event) bool {
	if m.failAt > 0 {
		return false
	}
	m.events++
	if !m.inner.Step(e) {
		m.failAt = m.events
		m.failEv = e
		return false
	}
	return true
}

// Verdict implements slx.Monitor.
func (m *safetyMonitor) Verdict() slx.Verdict {
	v := slx.Verdict{Property: m.name, Kind: slx.Safety, Holds: m.failAt == 0}
	if v.Holds {
		v.Reason = fmt.Sprintf("holds after %d events", m.events)
	} else {
		v.Reason = fmt.Sprintf("violated at event %d: %s", m.failAt, m.failEv)
	}
	return v
}

// Fork implements slx.Monitor.
func (m *safetyMonitor) Fork() slx.Monitor { return m.ForkInto(nil) }

// ForkInto is the destination form of Fork that slx's monitor sets
// call: a wrapper dst is overwritten, and its native monitor handed on
// as the native fork's destination (see safety.Monitor).
func (m *safetyMonitor) ForkInto(dst slx.Monitor) slx.Monitor {
	f, _ := dst.(*safetyMonitor)
	if f == nil {
		f = &safetyMonitor{}
	}
	f.name, f.inner, f.events, f.failAt, f.failEv = m.name, m.inner.Fork(f.inner), m.events, m.failAt, m.failEv
	return f
}

// StateDigest implements slx.Digester by delegating to the native
// monitor's digest. The wrapper's own event counter needs no digesting:
// it equals the total event count, which the simulator state
// fingerprint pins (per-process completed and pending operations and
// the crash set determine it).
func (m *safetyMonitor) StateDigest() (uint64, bool) {
	d, ok := m.inner.(slx.Digester)
	if !ok {
		return 0, false
	}
	return d.StateDigest()
}

// monitored builds the standard slx.Property for a native incremental
// checker: batch Check through holds, exploration through spawn.
func monitored(name string, holds func(h hist.History) bool, spawn func() safety.Monitor) slx.Property {
	return slx.MonitoredSafety(name, holds, func() slx.Monitor { return wrapMonitor(name, spawn()) })
}
