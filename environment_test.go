package repro_test

// An environment is a pure function of (proc, view): one instance may
// be consulted on many branches of an exploration, in any order, and is
// never rewound. TestRestoreAudit would catch a stateful environment
// among the ones everyObject drives, since its snapshot session keeps
// one instance across restores while its reference is fresh at every
// node; TestEnvironmentsArePure asks every in-tree environment directly.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/adversary"
	"repro/internal/consensus"
	"repro/internal/history"
	"repro/internal/sim"
	"repro/internal/tm"
)

// envQuery is one consultation a run made: the process, a copy of the
// view it was shown, and the answer it got.
type envQuery struct {
	proc int
	v    *sim.View
	inv  sim.Invocation
	ok   bool
}

// copyView copies v, which the runtime reuses after the call.
func copyView(v *sim.View) *sim.View {
	return &sim.View{
		H:       slices.Clone(v.H),
		Steps:   v.Steps,
		Ready:   slices.Clone(v.Ready),
		Idle:    slices.Clone(v.Idle),
		Blocked: slices.Clone(v.Blocked),
		Crashed: slices.Clone(v.Crashed),
		StepsBy: slices.Clone(v.StepsBy),
		Invoked: slices.Clone(v.Invoked),
	}
}

// resolved resolves a LazyArg answer against the view it was chosen
// in, so answers compare by value.
func resolved(inv sim.Invocation, v *sim.View) sim.Invocation {
	if lazy, isLazy := inv.Arg.(sim.LazyArg); isLazy {
		inv.Arg = lazy(v)
	}
	return inv
}

// impureAnswers records every consultation of a seeded run with crashes
// and recoveries, then asks each (proc, view) again of a fresh instance
// and of one instance queried in reverse order. It returns the queries
// whose answers differ from the run's.
func impureAnswers(c objectCase, seed int64) (queries int, diffs []string) {
	live := c.newEnv()
	var qs []envQuery
	rec := sim.EnvironmentFunc(func(proc int, v *sim.View) (sim.Invocation, bool) {
		inv, ok := live.Next(proc, v)
		q := envQuery{proc: proc, v: copyView(v), ok: ok}
		q.inv = resolved(inv, q.v)
		qs = append(qs, q)
		return inv, ok
	})
	sim.Run(sim.Config{
		Procs:     c.procs,
		Object:    c.newObj(),
		Env:       rec,
		Scheduler: sim.RandomRecovery(seed, 0.05, 0.3, 2, 2),
		MaxSteps:  300,
	})
	check := func(how string, e sim.Environment, q envQuery) {
		inv, ok := e.Next(q.proc, q.v)
		if inv = resolved(inv, q.v); ok != q.ok || !reflect.DeepEqual(inv, q.inv) {
			diffs = append(diffs, fmt.Sprintf("%s: p%d after %d events: %v/%v, run got %v/%v",
				how, q.proc, len(q.v.H), inv, ok, q.inv, q.ok))
		}
	}
	reversed := c.newEnv()
	for i := range qs {
		check("fresh instance", c.newEnv(), qs[i])
		check("reverse order", reversed, qs[len(qs)-1-i])
	}
	return len(qs), diffs
}

// TestEnvironmentsArePure checks the sim.Environment contract on every
// in-tree environment: a fresh instance and one already asked in
// another order answer each (proc, view) of a seeded run as the run's
// own instance did. everyObject drives the stock environments; the
// cases added here are the ones it does not. A counter-keeping fixture
// shows the check bites.
func TestEnvironmentsArePure(t *testing.T) {
	cases := everyObject()
	cases["env:OneShot"] = objectCase{2, func() sim.Object { return consensus.NewCommitAdoptOF(2) }, func() sim.Environment {
		return consensus.ProposeOnce(map[int]history.Value{1: 0, 2: 1})
	}}
	cases["env:Repeat"] = objectCase{2, func() sim.Object { return consensus.NewCommitAdoptOF(2) }, func() sim.Environment {
		return sim.Repeat(sim.Invocation{Op: consensus.Propose, Arg: 1})
	}}
	cases["env:S3"] = objectCase{3, func() sim.Object { return tm.NewI12(3) }, func() sim.Environment { return adversary.NewS3(3).Environment() }}
	cases["env:TMStarve"] = objectCase{3, func() sim.Object { return tm.NewDSTM(3) }, func() sim.Environment { return adversary.NewTMStarve(1, 2).Environment() }}
	for name, c := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			n, diffs := impureAnswers(c, seed)
			if n < c.procs {
				t.Errorf("%s seed %d: the run consulted the environment only %d times", name, seed, n)
			}
			for _, d := range diffs {
				t.Errorf("%s seed %d: %s", name, seed, d)
			}
		}
	}

	counting := objectCase{2, func() sim.Object { return consensus.NewCommitAdoptOF(2) }, func() sim.Environment {
		calls := 0
		return sim.EnvironmentFunc(func(proc int, v *sim.View) (sim.Invocation, bool) {
			calls++
			return sim.Invocation{Op: consensus.Propose, Arg: calls % 2}, true
		})
	}}
	if _, diffs := impureAnswers(counting, 1); len(diffs) == 0 {
		t.Error("an environment that counts its consultations passed the purity check")
	}
}
