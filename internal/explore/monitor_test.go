package explore

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/base"
	"repro/internal/consensus"
	"repro/internal/history"
	"repro/internal/safety"
	"repro/internal/sim"
)

// recordingSet adapts a safety.Monitor to MonitorSet, counting steps and
// forks (atomically, so the parallel path can share the counters).
type recordingSet struct {
	m            safety.Monitor
	steps, forks *atomic.Int64
}

func (s *recordingSet) Step(e history.Event) error {
	s.steps.Add(1)
	if !s.m.Step(e) {
		return fmt.Errorf("monitor violation")
	}
	return nil
}

func (s *recordingSet) Fork(MonitorSet) MonitorSet {
	s.forks.Add(1)
	return &recordingSet{m: s.m.Fork(nil), steps: s.steps, forks: s.forks}
}

// holdsSet is the in-package batch oracle: a MonitorSet that
// accumulates its path's history and re-judges all of it with a batch
// predicate on every event. Safety predicates are prefix-closed, so it
// rejects exactly the first event after which the history violates —
// the prefix a re-judge-every-prefix check would have stopped at.
type holdsSet struct {
	name  string
	holds func(history.History) bool
	h     history.History
}

// checkSafety returns a Config.NewMonitors factory judging the named
// property through holds.
func checkSafety(name string, holds func(history.History) bool) func() MonitorSet {
	return func() MonitorSet { return &holdsSet{name: name, holds: holds} }
}

func (s *holdsSet) Step(e history.Event) error {
	s.h = append(s.h, e)
	if !s.holds(s.h) {
		return fmt.Errorf("%s violated on history %s", s.name, s.h)
	}
	return nil
}

func (s *holdsSet) Fork(MonitorSet) MonitorSet {
	s.h = s.h[:len(s.h):len(s.h)] // clip: a later append by either copy reallocates
	return &holdsSet{name: s.name, holds: s.holds, h: s.h}
}

func proposeOnce01() func() sim.Environment {
	return func() sim.Environment {
		return consensus.ProposeOnce(map[int]history.Value{1: 0, 2: 1})
	}
}

// TestMonitorPathMatchesBatch explores the same tree through the
// native monitor and through the batch oracle (holdsSet) and requires
// identical trees and event counts, with Stats.Events counting exactly
// the events the monitor set stepped.
func TestMonitorPathMatchesBatch(t *testing.T) {
	prop := safety.AgreementValidity{}
	batch, err := Run(Config{
		Procs:       2,
		NewObject:   func() sim.Object { return consensus.NewCommitAdoptOF(2) },
		NewEnv:      proposeOnce01(),
		Depth:       9,
		NewMonitors: checkSafety(prop.Name(), prop.Holds),
	})
	if err != nil {
		t.Fatalf("batch explore: %v", err)
	}
	var steps, forks atomic.Int64
	mon, err := Run(Config{
		Procs:     2,
		NewObject: func() sim.Object { return consensus.NewCommitAdoptOF(2) },
		NewEnv:    proposeOnce01(),
		Depth:     9,
		NewMonitors: func() MonitorSet {
			return &recordingSet{m: prop.Spawn(), steps: &steps, forks: &forks}
		},
	})
	if err != nil {
		t.Fatalf("monitor explore: %v", err)
	}
	if mon.Prefixes != batch.Prefixes || mon.Steps != batch.Steps || mon.Events != batch.Events {
		t.Fatalf("monitor path explored %d prefixes/%d steps/%d events, batch %d/%d/%d",
			mon.Prefixes, mon.Steps, mon.Events, batch.Prefixes, batch.Steps, batch.Events)
	}
	if forks.Load() == 0 {
		t.Fatal("the monitor set must have been forked at branch points")
	}
	if int64(mon.Events) != steps.Load() {
		t.Fatalf("Stats.Events = %d, but the monitor set stepped %d events", mon.Events, steps.Load())
	}
	t.Logf("prefixes=%d events=%d forks=%d", mon.Prefixes, mon.Events, forks.Load())
}

// TestMonitorPathFindsViolationWithWitness: the monitor path reports the
// violation wrapped in a *Violation carrying a non-nil witness that
// replays to a violating history.
func TestMonitorPathFindsViolationWithWitness(t *testing.T) {
	prop := safety.AgreementValidity{}
	newObj := func() sim.Object { return &brokenConsensus{r: base.NewRegister(new(base.Mem), "r", nil)} }
	var steps, forks atomic.Int64
	st, err := Run(Config{
		Procs:     2,
		NewObject: newObj,
		NewEnv:    proposeOnce01(),
		Depth:     6,
		NewMonitors: func() MonitorSet {
			return &recordingSet{m: prop.Spawn(), steps: &steps, forks: &forks}
		},
	})
	if err == nil {
		t.Fatal("monitor path must find the agreement violation")
	}
	var vio *Violation
	if !errors.As(err, &vio) {
		t.Fatalf("error must be a *Violation, got %T: %v", err, err)
	}
	if vio.Schedule == nil || st.Witness == nil {
		t.Fatal("witness must be non-nil on failure")
	}
	if vio.EventIndex < 0 || vio.EventIndex >= len(vio.H) {
		t.Fatalf("event index %d out of range of %d-event history", vio.EventIndex, len(vio.H))
	}
	res := sim.Run(sim.Config{
		Procs:     2,
		Object:    newObj(),
		Env:       proposeOnce01()(),
		Scheduler: sim.Fixed(vio.Schedule),
		MaxSteps:  len(vio.Schedule) + 1,
	})
	if prop.Holds(res.H) {
		t.Error("witness schedule must reproduce the violation")
	}
}

// TestRootViolationWitnessNonNil: a monitor rejecting the very first
// event — the earliest violation a monitor can report — must yield the
// one-decision witness of the root's first child, on the serial and the
// parallel path alike.
func TestRootViolationWitnessNonNil(t *testing.T) {
	for _, workers := range []int{1, 4} {
		st, err := Run(Config{
			Procs:       2,
			NewObject:   func() sim.Object { return consensus.NewCommitAdoptOF(2) },
			NewEnv:      proposeOnce01(),
			Depth:       3,
			Workers:     workers,
			NewMonitors: func() MonitorSet { return failFirstSet{} },
		})
		if err == nil {
			t.Fatalf("workers=%d: violation expected", workers)
		}
		if want := []sim.Decision{{Proc: 1}}; !reflect.DeepEqual(st.Witness, want) {
			t.Errorf("workers=%d: first-event witness = %#v, want %v", workers, st.Witness, want)
		}
	}
}

// failFirstSet violates on the very first event it sees.
type failFirstSet struct{}

func (failFirstSet) Step(e history.Event) error   { return fmt.Errorf("first event rejected") }
func (f failFirstSet) Fork(MonitorSet) MonitorSet { return f }

// TestMonitorParallelMatchesSequential: the monitor path explores the
// same tree under Workers > 1, and violations found by workers carry
// their witnesses.
func TestMonitorParallelMatchesSequential(t *testing.T) {
	prop := safety.AgreementValidity{}
	mk := func(workers int) *Stats {
		var steps, forks atomic.Int64
		st, err := Run(Config{
			Procs:     2,
			NewObject: func() sim.Object { return consensus.NewCommitAdoptOF(2) },
			NewEnv:    proposeOnce01(),
			Depth:     9,
			Workers:   workers,
			NewMonitors: func() MonitorSet {
				return &recordingSet{m: prop.Spawn(), steps: &steps, forks: &forks}
			},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return st
	}
	if seq, par := mk(1), mk(4); seq.Prefixes != par.Prefixes {
		t.Errorf("parallel explored %d prefixes, sequential %d", par.Prefixes, seq.Prefixes)
	}

	// A violation below the root, found by a worker, surfaces with its witness.
	st, err := Run(Config{
		Procs:       2,
		NewObject:   func() sim.Object { return &brokenConsensus{r: base.NewRegister(new(base.Mem), "r", nil)} },
		NewEnv:      proposeOnce01(),
		Depth:       6,
		Workers:     4,
		NewMonitors: func() MonitorSet { return failFirstSet{} },
	})
	if err == nil {
		t.Fatal("violation expected")
	}
	var vio *Violation
	if !errors.As(err, &vio) || st.Witness == nil {
		t.Fatalf("want *Violation with witness, got %T (witness %#v)", err, st.Witness)
	}
}
