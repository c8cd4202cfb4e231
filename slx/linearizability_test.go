package slx_test

import (
	"fmt"
	"testing"

	"repro/slx"
	"repro/slx/check"
	"repro/slx/hist"
	"repro/slx/run"
)

// atomicRegister is an atomic read/write register written as a blocking
// Apply: every operation takes effect in the step that invokes it.
func atomicRegister() run.Object {
	var v hist.Value = 0
	return run.ObjectFunc(func(p *run.Proc, inv run.Invocation) hist.Value {
		if inv.Op == "write" {
			v = inv.Arg
			return hist.OK
		}
		return v
	})
}

// TestLinearizabilityHasNoLengthCap: one process writing an atomic
// register forever yields a linearizable history of any length. Check
// and sampled Explore both judge it with the one linearizability
// monitor, so both accept it past the 63 operations a mask indexed by
// history position could hold — and therefore agree.
func TestLinearizabilityHasNoLengthCap(t *testing.T) {
	prop := check.Linearizability(check.RegisterSpec{Initial: 0})
	opts := []slx.Option{
		slx.WithObject(atomicRegister),
		slx.WithEnv(func() run.Environment { return run.Repeat(run.Invocation{Op: "write", Arg: 1}) }),
		slx.WithProcs(1),
	}
	for _, steps := range []int{128, 200} {
		rep, err := slx.New(append(opts, slx.WithMaxSteps(steps))...).Check(prop)
		if err != nil {
			t.Fatalf("Check at %d steps: %v", steps, err)
		}
		v, _ := rep.Verdict(prop.Name())
		if !v.Holds {
			t.Errorf("Check at %d steps: %s", steps, v.Reason)
		}
		if n := len(rep.Execution.H.Operations()); n <= 63 {
			t.Errorf("Check at %d steps ran only %d operations", steps, n)
		}
	}
	rep, err := slx.New(append(opts, slx.WithDepth(200), slx.WithSample(4, 3), slx.WithSeed(1))...).Explore(prop)
	if err != nil {
		t.Fatalf("sampled Explore: %v", err)
	}
	if !rep.OK() {
		t.Errorf("sampled Explore at depth 200 disagrees with Check:\n%s", rep)
	}
}

// TestLinearizabilityLongConcurrentRun: three processes each perform 100
// operations on an atomic register under a random schedule, 300
// operations in all, and Check accepts the history.
func TestLinearizabilityLongConcurrentRun(t *testing.T) {
	script := make(map[int][]run.Invocation)
	for p := 1; p <= 3; p++ {
		for i := 0; i < 50; i++ {
			script[p] = append(script[p],
				run.Invocation{Op: "write", Arg: fmt.Sprintf("%d.%d", p, i)},
				run.Invocation{Op: "read"})
		}
	}
	prop := check.Linearizability(check.RegisterSpec{Initial: 0})
	rep, err := slx.New(
		slx.WithObject(atomicRegister),
		slx.WithEnv(func() run.Environment { return run.Script(script) }),
		slx.WithProcs(3),
		slx.WithScheduler(func() run.Scheduler { return run.Random(1) }),
		slx.WithMaxSteps(2000),
	).Check(prop)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if n := len(rep.Execution.H.Operations()); n != 300 {
		t.Fatalf("ran %d operations, want 300", n)
	}
	if v, _ := rep.Verdict(prop.Name()); !v.Holds {
		t.Errorf("300-operation register run: %s", v.Reason)
	}
}
