package slx

import (
	"math/rand"
	"testing"

	"repro/internal/explore"
	"repro/internal/safety"
	"repro/slx/hist"
)

// randRegisterHistory interleaves reads and writes of processes
// from+1..from+3 on a register, read responses drawn from {0, 1, 2}, so
// about half its prefixes are not linearizable.
func randRegisterHistory(r *rand.Rand, from, events int) hist.History {
	var h hist.History
	pending := make(map[int]string)
	for len(h) < events {
		p := from + 1 + r.Intn(3)
		switch pending[p] {
		case "read":
			h = append(h, hist.Response(p, "read", r.Intn(3)))
		case "write":
			h = append(h, hist.Response(p, "write", hist.OK))
		}
		if pending[p] != "" {
			pending[p] = ""
			continue
		}
		if r.Intn(2) == 0 {
			h = append(h, hist.Invoke(p, "read", nil))
			pending[p] = "read"
		} else {
			h = append(h, hist.Invoke(p, "write", r.Intn(3)))
			pending[p] = "write"
		}
	}
	return h
}

// setMonitor presents a monitor set as one Monitor, its step holding
// while no member has failed.
type setMonitor struct{ s explore.MonitorSet }

func (m setMonitor) Step(e hist.Event) bool { return m.s.Step(e) == nil }
func (m setMonitor) Verdict() Verdict       { return Verdict{} }
func (m setMonitor) Fork() Monitor          { return setMonitor{m.s.Fork(nil)} }

func (m setMonitor) StateDigest() (uint64, bool) { return m.s.(Digester).StateDigest() }

// linMonitor presents a safety monitor as an slx Monitor, with the
// ForkInto hook slx/check's monitors have.
type linMonitor struct{ m safety.Monitor }

func (m linMonitor) Step(e hist.Event) bool { return m.m.Step(e) }
func (m linMonitor) Verdict() Verdict       { return Verdict{Holds: m.m.OK()} }
func (m linMonitor) Fork() Monitor          { return linMonitor{m.m.Fork(nil)} }

func (m linMonitor) ForkInto(dst Monitor) Monitor {
	d, _ := dst.(linMonitor)
	return linMonitor{m.m.Fork(d.m)}
}

// TestMonitorForkIndependence forks a BatchMonitor, and a monitor set
// holding one beside a native monitor, after a random prefix. The fork
// goes on with an unrelated history on processes 4–6 while the parent
// goes on with its own suffix, one event each in turn, the fork first.
// Each must keep the verdict of its own history, so a fork that shares
// appendable storage with its parent fails. The set is also forked into
// the previous history's parent set, which holds another branch's
// state. Every fork must also keep the digest of a fresh fork stepped
// beside it.
func TestMonitorForkIndependence(t *testing.T) {
	spec := safety.RegisterSpec{Initial: 0}
	holds := func(h hist.History) bool { return safety.Linearizable(spec, h) }
	props := []Property{
		SafetyFunc("batch", holds),
		MonitoredSafety("native", holds, func() Monitor { return linMonitor{safety.NewLinMonitor(spec)} }),
	}
	newSet := func() Monitor { return setMonitor{monitorSets(props)()} }
	fork := func(m, _ Monitor) Monitor { return m.Fork() }
	for _, tc := range []struct {
		name  string
		spawn func() Monitor
		fork  func(m, used Monitor) Monitor
	}{
		{"BatchMonitor", func() Monitor { return BatchMonitor("batch", holds) }, fork},
		{"monitor set", newSet, fork},
		{"monitor set into a used set", newSet, func(m, used Monitor) Monitor {
			var dst explore.MonitorSet
			if used != nil {
				dst = used.(setMonitor).s
			}
			return setMonitor{m.(setMonitor).s.Fork(dst)}
		}},
	} {
		name, spawn := tc.name, tc.spawn
		r := rand.New(rand.NewSource(1))
		var used Monitor
		for i := 0; i < 300; i++ {
			h := randRegisterHistory(r, 0, 4+r.Intn(16))
			alt := randRegisterHistory(r, 3, 4+r.Intn(16))
			at := r.Intn(len(h) + 1)
			m := spawn()
			for _, e := range h[:at] {
				m.Step(e)
			}
			fork, ref := tc.fork(m, used), m.Fork()
			hf := append(h[:at:at], alt...)
			// The monitors are sticky; so is this oracle.
			mOK, fOK := holds(h[:at]), holds(h[:at])
			for k := at; k < len(h) || k < len(hf); k++ {
				if k < len(hf) {
					fOK = fOK && holds(hf[:k+1])
					if got := fork.Step(hf[k]); got != fOK {
						t.Fatalf("%s: fork=%v oracle=%v at event %d of %s (forked at %d from %s)", name, got, fOK, k+1, hf, at, h)
					}
					ref.Step(hf[k])
					fd, fok := fork.(Digester).StateDigest()
					if rd, rok := ref.(Digester).StateDigest(); fd != rd || fok != rok {
						t.Fatalf("%s: fork digest %d/%v, fresh fork's %d/%v at event %d of %s", name, fd, fok, rd, rok, k+1, hf)
					}
				}
				if k < len(h) {
					mOK = mOK && holds(h[:k+1])
					if got := m.Step(h[k]); got != mOK {
						t.Fatalf("%s: monitor=%v oracle=%v at event %d of %s (fork stepped %s)", name, got, mOK, k+1, h, hf)
					}
				}
			}
			used = m
		}
	}
}
