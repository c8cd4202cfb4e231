package safety

import "repro/internal/history"

// Monitor is the incremental form of a safety Property: a stateful
// checker that consumes a history one event at a time instead of
// re-scanning it from scratch. Monitors exist so exhaustive exploration
// can thread checker state down the DFS — each explored prefix pays only
// for its new events, and branching forks the state instead of replaying
// the prefix into a fresh checker.
//
// The contract mirrors prefix closure (Definition 3.1): once Step
// observes a violation the verdict is sticky — every further Step
// returns false and OK stays false. Step must accept every well-formed
// event sequence, including crash events (which every safety property
// here ignores).
type Monitor interface {
	// Step consumes the next history event and reports whether the
	// property still holds on the consumed prefix. A false return is
	// permanent (violations are irrevocable).
	Step(e history.Event) bool
	// OK reports the current verdict: true iff no consumed prefix
	// violated the property.
	OK() bool
	// Fork returns an independent monitor with this monitor's state.
	// Stepping either copy never affects the other; exploration forks at
	// every branch point of the schedule tree. dst is nil or a monitor
	// forked earlier from the same root that nothing steps any more:
	// Fork may overwrite dst and return it instead of allocating, or
	// ignore it. Nil means allocate.
	Fork(dst Monitor) Monitor
}

// BatchAdapter presents a monitor factory as a batch Property: Holds
// spawns a fresh monitor and replays the whole history through it. It is
// how the simple native-monitor checkers (agreement+validity, k-set
// agreement, mutual exclusion) retain their batch Check surface — the
// monitor is the single implementation, the adapter derives the
// one-shot form.
type BatchAdapter struct {
	// PropName is returned by Name.
	PropName string
	// SpawnFn creates a fresh monitor at the empty history.
	SpawnFn func() Monitor
}

// Name implements Property.
func (a BatchAdapter) Name() string { return a.PropName }

// Holds implements Property by replaying h through a fresh monitor.
func (a BatchAdapter) Holds(h history.History) bool {
	m := a.SpawnFn()
	for _, e := range h {
		if !m.Step(e) {
			return false
		}
	}
	return m.OK()
}

// Spawn returns a fresh monitor.
func (a BatchAdapter) Spawn() Monitor { return a.SpawnFn() }
