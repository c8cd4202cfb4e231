package sim

import "repro/internal/history"

// applyMachine is the runtime's adapter for objects without a Stepped
// machine of their own (see ownMachine): each Begin runs one blocking
// Apply call as an applyFrame.
type applyMachine struct{ Object }

// Begin implements Stepped: it starts the Apply call on its own
// goroutine and returns once the call reaches its first Proc.Exec
// (StepPaused), returns (StepDone) or calls Proc.Block (StepBlocked).
// The code before the first Exec thus runs in the invocation window,
// exactly where a Stepped machine runs it.
func (m applyMachine) Begin(p *Proc, inv Invocation) (Frame, history.Value, StepStatus) {
	f := &applyFrame{p: p, resume: make(chan bool), stop: make(chan applyStop)}
	p.call = f
	go f.run(m.Object, inv)
	val, st := f.wait()
	if st != StepPaused {
		return nil, val, st
	}
	return f, nil, StepPaused
}

// applyFrame is one blocking Apply call in flight. The call runs on its
// own goroutine, but only one side runs at a time: Step hands the call
// the granted Exec window on resume and waits on stop until the call
// reaches its next Exec, returns, blocks or panics. Between windows the
// call is parked inside Proc.Exec, and its process's call points to it;
// halt unwinds it with errHalted.
type applyFrame struct {
	p      *Proc
	resume chan bool      // true: run the granted window; false: unwind
	stop   chan applyStop // where the call stopped
}

// applyStop is where an Apply call stopped: at an Exec (StepPaused), at
// its return (StepDone, with the response), at Proc.Block (StepBlocked),
// or at a panic from object code, which the dispatcher re-raises. An
// unwound call reports the zero applyStop.
type applyStop struct {
	val   history.Value
	st    StepStatus
	panic any
}

// run executes the call on its goroutine and reports where it ended.
func (f *applyFrame) run(o Object, inv Invocation) {
	var s applyStop
	defer func() {
		switch v := recover(); v {
		case nil:
		case errBlocked:
			s = applyStop{st: StepBlocked}
		case errHalted:
			s = applyStop{}
		default:
			s = applyStop{panic: v}
		}
		f.stop <- s
	}()
	s.val = o.Apply(f.p, inv)
	s.st = StepDone
}

// wait blocks until the call stops. A call that did not pause is over:
// the process's call is cleared, so a stray Exec panics instead of
// deadlocking, and a panic from object code re-panics here, on the
// goroutine that called Extend or Run.
func (f *applyFrame) wait() (history.Value, StepStatus) {
	s := <-f.stop
	if s.st != StepPaused {
		f.p.call = nil
	}
	if s.panic != nil {
		panic(s.panic)
	}
	return s.val, s.st
}

// Step implements Frame: the call runs one Exec window plus the code
// after it, up to its next Exec, its return or Proc.Block.
func (f *applyFrame) Step(*Proc) (history.Value, StepStatus) {
	f.resume <- true
	return f.wait()
}

// Fork implements Frame. A goroutine stack cannot be copied, and the
// snapshot strategy, Fork's only caller, requires the object's own
// Stepped machine (CanSnapshot).
func (f *applyFrame) Fork() Frame {
	panic("sim: a blocking Apply call cannot be forked")
}

// halt unwinds a parked call and waits for its goroutine to exit; it is
// a no-op on a call that is already over.
func (f *applyFrame) halt() {
	if f.p.call != f {
		return
	}
	f.p.call = nil
	f.resume <- false
	<-f.stop
}
