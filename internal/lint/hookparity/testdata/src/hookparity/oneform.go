package hookparity

import (
	"repro/internal/history"
	"repro/internal/sim"
	"repro/slx/run"
)

// oneFrame is the in-flight operation of the one-form fixtures.
type oneFrame struct{}

func (f oneFrame) Step(*sim.Proc) (history.Value, sim.StepStatus) { return nil, sim.StepDone }
func (f oneFrame) Fork() sim.Frame                                { return f }

// derived is a frame machine whose Apply is the derived call: clean.
type derived struct{}

func (d *derived) Apply(p *sim.Proc, inv sim.Invocation) history.Value {
	return sim.ApplyFrames(d, p, inv)
}

func (d *derived) Begin(*sim.Proc, sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	return oneFrame{}, nil, sim.StepPaused
}

// derivedRun derives Apply through the slx/run facade: clean.
type derivedRun struct{}

func (d derivedRun) Apply(p *run.Proc, inv run.Invocation) history.Value {
	return run.ApplyFrames(d, p, inv)
}

func (derivedRun) Begin(*run.Proc, run.Invocation) (run.Frame, history.Value, run.StepStatus) {
	return nil, nil, run.StepBlocked
}

// handWritten keeps a blocking Apply beside its Begin machine.
type handWritten struct{}

func (h *handWritten) Apply(p *sim.Proc, inv sim.Invocation) history.Value { // want `handWritten\.Apply must be the one line`
	p.Exec("step", func() {})
	return nil
}

func (h *handWritten) Begin(*sim.Proc, sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	return oneFrame{}, nil, sim.StepPaused
}

// swapped derives Apply but passes its arguments out of order.
type swapped struct{}

func (s *swapped) Apply(p *sim.Proc, inv sim.Invocation) history.Value { // want `swapped\.Apply must be the one line`
	return sim.ApplyFrames(&swapped{}, p, inv)
}

func (s *swapped) Begin(*sim.Proc, sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	return oneFrame{}, nil, sim.StepPaused
}

// applyOnly is a blocking Apply with no frame machine.
type applyOnly struct{} // want `applyOnly has a blocking Apply but no Begin machine`

func (a *applyOnly) Apply(p *sim.Proc, inv sim.Invocation) history.Value {
	p.Exec("step", func() {})
	return nil
}

var _ = []any{&derived{}, derivedRun{}, &handWritten{}, &swapped{}, &applyOnly{}}
