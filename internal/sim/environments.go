package sim

// EnvironmentFunc adapts a function to the Environment interface. The
// function must be pure in (proc, view), as the interface requires: it
// keeps no counters.
type EnvironmentFunc func(proc int, v *View) (Invocation, bool)

// Next implements Environment.
func (f EnvironmentFunc) Next(proc int, v *View) (Invocation, bool) {
	return f(proc, v)
}

// oneShotEnv gives each process exactly one invocation.
type oneShotEnv struct {
	invs map[int]Invocation
}

// Next implements Environment.
func (e *oneShotEnv) Next(proc int, v *View) (Invocation, bool) {
	inv, ok := e.invs[proc]
	if !ok || v.Invoked[proc] > 0 {
		return Invocation{}, false
	}
	return inv, true
}

// OneShot gives each process exactly one invocation (from invs, keyed by
// process id) and then parks it. Processes without an entry are parked
// immediately. It models one-shot objects such as consensus.
func OneShot(invs map[int]Invocation) Environment {
	return &oneShotEnv{invs: invs}
}

// scriptEnv gives each process a fixed sequence of invocations.
type scriptEnv struct {
	script map[int][]Invocation
}

// Next implements Environment.
func (e *scriptEnv) Next(proc int, v *View) (Invocation, bool) {
	seq := e.script[proc]
	if i := v.Invoked[proc]; i < len(seq) {
		return seq[i], true
	}
	return Invocation{}, false
}

// Script gives each process a fixed sequence of invocations, then parks it.
func Script(script map[int][]Invocation) Environment {
	return &scriptEnv{script: script}
}

// repeatEnv makes every process invoke the same invocation forever.
type repeatEnv struct {
	inv Invocation
}

// Next implements Environment.
func (e *repeatEnv) Next(proc int, v *View) (Invocation, bool) {
	return e.inv, true
}

// Repeat makes every process invoke the same invocation forever (useful
// with step budgets).
func Repeat(inv Invocation) Environment {
	return &repeatEnv{inv: inv}
}

// repeatPerProcEnv makes each process invoke its own invocation forever.
type repeatPerProcEnv struct {
	invs map[int]Invocation
}

// Next implements Environment.
func (e *repeatPerProcEnv) Next(proc int, v *View) (Invocation, bool) {
	inv, ok := e.invs[proc]
	return inv, ok
}

// RepeatPerProc makes each process invoke its own invocation forever.
// Processes without an entry are parked immediately. This is the standard
// environment for liveness evaluation: progress is "infinitely many good
// responses", so processes must keep invoking.
func RepeatPerProc(invs map[int]Invocation) Environment {
	return &repeatPerProcEnv{invs: invs}
}
