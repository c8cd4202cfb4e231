package slx

import (
	"fmt"
	"sort"

	"repro/slx/hist"
	"repro/slx/run"
)

// PropertyKind distinguishes the paper's two property classes.
type PropertyKind int

// Property kinds.
const (
	// Safety: a prefix-closed, limit-closed set of histories (Section
	// 3.1). Safety properties are judged on the history alone and may be
	// checked on every prefix during exhaustive exploration.
	Safety PropertyKind = iota + 1
	// Liveness: a guarantee over fair executions (Section 3.2), judged on
	// the full execution under the bounded tail-window semantics.
	Liveness
)

// String names the kind.
func (k PropertyKind) String() string {
	switch k {
	case Safety:
		return "safety"
	case Liveness:
		return "liveness"
	default:
		return fmt.Sprintf("PropertyKind(%d)", int(k))
	}
}

// Verdict is the unified outcome of checking one property on one
// execution.
type Verdict struct {
	// Property is the property name.
	Property string
	// Kind is the property's kind.
	Kind PropertyKind
	// Holds reports whether the execution satisfies the property.
	Holds bool
	// Reason is a human-readable explanation of the verdict.
	Reason string
	// Witness, set when the property fails, is the schedule of the
	// violating execution. A schedule determines a run together with the
	// environment, so feeding it to Checker.Replay reproduces the
	// violation deterministically whenever the checker's environment
	// matches the one that produced the run: Check and Replay runs always
	// match by construction, and adversaries that script their own inputs
	// expose theirs via slx.EnvScripter.
	Witness []run.Decision
}

// String renders "name: PASS" or "name: FAIL (reason)".
func (v Verdict) String() string {
	if v.Holds {
		return fmt.Sprintf("%s: PASS", v.Property)
	}
	return fmt.Sprintf("%s: FAIL (%s)", v.Property, v.Reason)
}

// Property is the unified interface over safety and liveness properties:
// spec + execution → verdict with witness. Implementations must be safe
// for concurrent Check calls (exhaustive exploration checks prefixes from
// worker goroutines).
type Property interface {
	// Name identifies the property in reports.
	Name() string
	// Kind says whether this is a safety or a liveness property.
	Kind() PropertyKind
	// Check judges the execution and returns the verdict.
	Check(e *Execution) Verdict
	// Spawn returns a fresh incremental Monitor at the empty history.
	// Explore judges safety properties only through their monitors, so
	// it rejects a safety property whose Spawn returns nil; SafetyFunc
	// and MonitoredSafety always spawn one (a BatchMonitor over the
	// predicate, or a native monitor). Liveness properties return nil —
	// liveness is a statement about full fair executions, not prefixes,
	// so there is no event-incremental verdict to maintain.
	Spawn() Monitor
}

// funcProperty implements Property over closures.
type funcProperty struct {
	name    string
	kind    PropertyKind
	holds   func(e *Execution) bool
	explain func(e *Execution) string // optional; used on failure
	spawn   func() Monitor            // nil for liveness properties
}

// Name implements Property.
func (p *funcProperty) Name() string { return p.name }

// Kind implements Property.
func (p *funcProperty) Kind() PropertyKind { return p.kind }

// Spawn implements Property.
func (p *funcProperty) Spawn() Monitor {
	if p.spawn == nil {
		return nil
	}
	return p.spawn()
}

// Check implements Property.
func (p *funcProperty) Check(e *Execution) Verdict {
	v := Verdict{Property: p.name, Kind: p.kind, Holds: p.holds(e)}
	if v.Holds {
		v.Reason = fmt.Sprintf("holds on the %d-event history (%d steps)", len(e.H), e.Steps)
		return v
	}
	v.Witness = append([]run.Decision(nil), e.Schedule...)
	if p.explain != nil {
		v.Reason = p.explain(e)
	} else {
		v.Reason = fmt.Sprintf("violated on the %d-event history (%d steps)", len(e.H), e.Steps)
	}
	return v
}

// SafetyFunc builds a safety Property from a history predicate. holds
// must be prefix-monotone (once false on a prefix, false on every
// extension), which every checker in slx/check satisfies; the failure
// reason pinpoints the shortest violating prefix by binary search under
// that monotonicity.
func SafetyFunc(name string, holds func(h hist.History) bool) Property {
	return &funcProperty{
		name:  name,
		kind:  Safety,
		holds: func(e *Execution) bool { return holds(e.H) },
		explain: func(e *Execution) string {
			n := sort.Search(len(e.H), func(n int) bool { return !holds(e.H.Prefix(n + 1)) }) + 1
			if n > len(e.H) || n < 1 {
				return fmt.Sprintf("violated on the %d-event history", len(e.H))
			}
			return fmt.Sprintf("violated at event %d/%d: %s", n, len(e.H), e.H[n-1])
		},
		spawn: func() Monitor { return BatchMonitor(name, holds) },
	}
}

// LivenessFunc builds a liveness Property from an execution predicate.
// The optional explain function produces the failure reason; the default
// reports the correct/stepping sets of the tail window.
func LivenessFunc(name string, holds func(e *Execution) bool, explain ...func(e *Execution) string) Property {
	p := &funcProperty{name: name, kind: Liveness, holds: holds}
	if len(explain) > 0 && explain[0] != nil {
		p.explain = explain[0]
	} else {
		p.explain = func(e *Execution) string {
			return fmt.Sprintf("violated: correct=%v steppers=%v over the tail window of the %d-step run",
				e.Correct(), e.Steppers(), e.Steps)
		}
	}
	return p
}
