package main

import (
	"repro/slx/hist"
	"repro/slx/run"
)

// register is the atomic read/write register of the 3-process register
// family: every operation is one access window, declared for POR,
// observed and fingerprinted for the state cache, and snapshottable and
// stepped so exploration runs on the session engine.
type register struct{ v hist.Value }

func (r *register) Apply(p *run.Proc, inv run.Invocation) hist.Value {
	var out hist.Value
	switch inv.Op {
	case "read":
		p.Exec("read", func() {
			p.Access("r", false)
			out = r.v
			p.Observe(out)
		})
	case "write":
		p.Exec("write", func() {
			out = hist.OK
			p.Access("r", true)
			r.v = inv.Arg
		})
	}
	return out
}

// registerFrame is one in-flight operation. It never mutates, so Fork
// returns the receiver.
type registerFrame struct {
	r   *register
	inv run.Invocation
}

// Begin implements run.Stepped.
func (r *register) Begin(p *run.Proc, inv run.Invocation) (run.Frame, hist.Value, run.StepStatus) {
	switch inv.Op {
	case "read", "write":
		return &registerFrame{r: r, inv: inv}, nil, run.StepPaused
	}
	return nil, nil, run.StepDone
}

// Step implements run.Frame.
func (f *registerFrame) Step(p *run.Proc) (hist.Value, run.StepStatus) {
	if f.inv.Op == "read" {
		p.Access("r", false)
		out := f.r.v
		p.Observe(out)
		return out, run.StepDone
	}
	p.Access("r", true)
	f.r.v = f.inv.Arg
	return hist.OK, run.StepDone
}

// Fork implements run.Frame.
func (f *registerFrame) Fork() run.Frame { return f }

// Footprints implements run.Footprinted.
func (r *register) Footprints() bool { return true }

// Fingerprint implements run.Fingerprintable.
func (r *register) Fingerprint(f *run.Fingerprinter) { f.Str("r"); f.Val(r.v) }

// Snapshot implements run.Snapshottable.
func (r *register) Snapshot() any { return r.v }

// Restore implements run.Snapshottable.
func (r *register) Restore(s any) { r.v = s }
