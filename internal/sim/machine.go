package sim

import "repro/internal/history"

// StepStatus is what a continuation frame reports after executing one
// granted step (or what Begin reports for the invocation window).
type StepStatus int

const (
	// StepPaused: the operation has more atomic steps to take; the
	// process remains ready and the frame will be stepped again.
	StepPaused StepStatus = iota + 1
	// StepDone: the operation completed; the accompanying value is its
	// response, recorded in the history within the same window.
	StepDone
	// StepBlocked: the implementation parks the process forever (the
	// continuation-runtime equivalent of Proc.Block).
	StepBlocked
)

// String names the status.
func (s StepStatus) String() string {
	switch s {
	case StepPaused:
		return "paused"
	case StepDone:
		return "done"
	case StepBlocked:
		return "blocked"
	default:
		return "invalid"
	}
}

// Stepped is the form every in-tree object is written in: each
// operation runs as an explicit state machine, one resumable step
// closure per scheduler grant, which the dispatch loop calls directly.
// It is the paper's process automaton written down — one base-object
// step per grant. The runtime executes a Stepped object exclusively
// through this hook (unless SessionGated vetoes it); any other object's
// blocking Apply runs through an adapter that parks the call on a
// goroutine between windows. The snapshot strategy of a Session
// requires the hook, since only explicit frames can be forked.
//
// Begin is called within the invocation window (the granted step that
// records the invocation event). It runs the operation's local code up
// to its first base-object access — composite-level setup, including
// any Proc.Observe calls that precede the first access — but no access
// itself (nothing may call Proc.Access: the invocation window has no
// footprint). It returns
//
//   - (frame, _, StepPaused) when the operation has base-object steps
//     left: each subsequent grant calls frame.Step once;
//   - (nil, val, StepDone) when the operation performs no base-object
//     access at all (val is the response, recorded in the same window);
//   - (nil, _, StepBlocked) when the operation blocks immediately.
//
// A Stepped object's Apply is derived from its machine by ApplyFrames,
// so the blocking form that ApplyOnly (and WithReplayExecution above
// it) reaches runs the same frames, one Proc.Exec window per Step.
type Stepped interface {
	Object
	Begin(p *Proc, inv Invocation) (Frame, history.Value, StepStatus)
}

// ApplyFrames runs s's frame machine as one blocking Apply call: Begin
// in the invocation window, then one Proc.Exec window per Frame.Step.
// Every in-tree object's Apply is this one call.
func ApplyFrames(s Stepped, p *Proc, inv Invocation) history.Value {
	f, val, st := s.Begin(p, inv)
	for st == StepPaused {
		p.Exec("", func() { val, st = f.Step(p) })
	}
	if st == StepBlocked {
		p.Block()
	}
	return val
}

// Frame is one in-flight operation of one process: the explicit
// continuation of the operation's local state between its steps. Step
// executes the operation's next atomic step — exactly one
// base-object access through the usual Proc hooks (Access/Observe, via
// the internal/base *W window methods) plus the trailing local code up
// to the next access — and reports whether the operation paused again,
// completed (returning its response), or blocked forever.
//
// Fork returns a frame equivalent to the receiver: stepping the
// original must not affect the fork and vice versa. A Session's marks
// share the live frames, and the runtime forks a frame a mark shares
// before its process's next step, so no mark's frame is ever stepped. A
// frame whose state never mutates after creation (every
// single-remaining-step frame qualifies) may return itself; frames with
// mutable progress state (loop counters, phase indices, collected
// values) must return a deep copy.
type Frame interface {
	Step(p *Proc) (history.Value, StepStatus)
	Fork() Frame
}
