package safety

import (
	"fmt"

	"repro/internal/history"
)

// State is a sequential-specification state. States are compared with
// == (the linearizability monitor interns them); one whose dynamic type
// is not comparable equals no state, itself included.
type State any

// Transition is one allowed (state, response) outcome of applying an
// invocation at a state, an element of the paper's Seq ⊆ Inv×St×St×Res.
type Transition struct {
	Next State
	Resp history.Value
}

// SeqSpec is a sequential specification of a shared object type Tp =
// (St, Inv, Res, Seq), presented operationally: Init gives the initial
// state, Apply enumerates the transitions allowed for an invocation at a
// state (possibly several, for nondeterministic specifications).
//
// Apply must be a pure function of its arguments: the linearizability
// monitor calls it, under a lock its forks share, once per distinct
// (state, invocation) pair of a job and reuses the transitions.
// Responses compare by == like states.
type SeqSpec interface {
	Name() string
	Init() State
	Apply(st State, proc int, op, obj string, arg history.Value) []Transition
}

// Linearizable reports whether the well-formed history h is linearizable
// with respect to spec: there is a sequential ordering of its operations,
// containing every completed operation and any subset of pending ones,
// that respects real-time order and the specification, with matching
// responses. Pending operations may take effect or not (crashed processes'
// operations are simply pending).
//
// It replays h through a fresh LinMonitor (LinearizabilityProperty's
// BatchAdapter), so Check, Explore and sampling share one decision
// procedure. Histories of any length are accepted; more than
// maxPendingOps operations pending at once panics.
func Linearizable(spec SeqSpec, h history.History) bool {
	return LinearizabilityProperty(spec).Holds(h)
}

// LinearizabilityProperty wraps a sequential specification as a safety
// Property: a history is in the property iff it is linearizable w.r.t.
// spec. Linearizability is prefix-closed (a linearization of h induces one
// of every prefix), so this satisfies Definition 3.1. The property is the
// BatchAdapter over NewLinMonitor.
func LinearizabilityProperty(spec SeqSpec) BatchAdapter {
	return BatchAdapter{
		PropName: fmt.Sprintf("linearizability(%s)", spec.Name()),
		SpawnFn:  func() Monitor { return NewLinMonitor(spec) },
	}
}

// StrictLinearizable reports whether the well-formed history h is
// strictly linearizable with respect to spec: linearizable in the usual
// sense, with the additional crash cutoff of Aguilera–Frølund strict
// linearizability — an operation pending when its process crashes
// either takes effect before the crash point or never. Operations of
// processes that later recover are ordinary fresh operations; the
// recovered process therefore observes exactly the effects that were
// durable at its crash.
//
// It replays h through a fresh strict LinMonitor
// (StrictLinearizabilityProperty's BatchAdapter), like Linearizable.
func StrictLinearizable(spec SeqSpec, h history.History) bool {
	return StrictLinearizabilityProperty(spec).Holds(h)
}

// StrictLinearizabilityProperty wraps a sequential specification as the
// crash-aware safety Property: a history is in the property iff it is
// strictly linearizable w.r.t. spec. Strict linearizability is
// prefix-closed: a strict linearization of h restricts to one of every
// prefix (dropping operations the prefix has not invoked keeps both the
// real-time order and the crash cutoffs intact). The property is the
// BatchAdapter over NewStrictLinMonitor.
func StrictLinearizabilityProperty(spec SeqSpec) BatchAdapter {
	return BatchAdapter{
		PropName: fmt.Sprintf("strict-linearizability(%s)", spec.Name()),
		SpawnFn:  func() Monitor { return NewStrictLinMonitor(spec) },
	}
}

// RegisterSpec is the sequential specification of a read/write register
// holding values, with operations "read" (no argument) and "write" (value
// argument, responds OK).
type RegisterSpec struct {
	// Initial is the register's initial value.
	Initial history.Value
}

// Name implements SeqSpec.
func (RegisterSpec) Name() string { return "register" }

// Init implements SeqSpec.
func (r RegisterSpec) Init() State { return r.Initial }

// Apply implements SeqSpec.
func (RegisterSpec) Apply(st State, proc int, op, obj string, arg history.Value) []Transition {
	switch op {
	case "read":
		return []Transition{Transition{Next: st, Resp: st}}
	case "write":
		return []Transition{Transition{Next: arg, Resp: history.OK}}
	default:
		return nil
	}
}

// CASSpec is the sequential specification of a compare-and-swap object with
// operations "read", "write", and "cas" (argument CASArg, responds true or
// false).
type CASSpec struct {
	Initial history.Value
}

// CASArg is the argument of a "cas" invocation.
type CASArg struct {
	Old, New history.Value
}

// Name implements SeqSpec.
func (CASSpec) Name() string { return "cas" }

// Init implements SeqSpec.
func (c CASSpec) Init() State { return c.Initial }

// Apply implements SeqSpec.
func (CASSpec) Apply(st State, proc int, op, obj string, arg history.Value) []Transition {
	switch op {
	case "read":
		return []Transition{Transition{Next: st, Resp: st}}
	case "write":
		return []Transition{Transition{Next: arg, Resp: history.OK}}
	case "cas":
		a, ok := arg.(CASArg)
		if !ok {
			return nil
		}
		if st == a.Old {
			return []Transition{Transition{Next: a.New, Resp: true}}
		}
		return []Transition{Transition{Next: st, Resp: false}}
	default:
		return nil
	}
}
