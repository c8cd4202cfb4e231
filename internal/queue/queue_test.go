package queue

import (
	"testing"

	"repro/internal/history"
	"repro/internal/liveness"
	"repro/internal/safety"
	"repro/internal/sim"
	"repro/slx"
)

func workload() map[int][]sim.Invocation {
	return map[int][]sim.Invocation{
		1: {{Op: "enq", Arg: "v1"}, {Op: "deq"}, {Op: "enq", Arg: "v2"}},
		2: {{Op: "deq"}, {Op: "enq", Arg: "v3"}, {Op: "deq"}},
	}
}

func TestQueuesLinearizableUnderRandomSchedules(t *testing.T) {
	impls := map[string]func() sim.Object{
		"locked": func() sim.Object { return NewLocked() },
		"cas":    func() sim.Object { return NewCASQueue() },
	}
	spec := safety.QueueSpec{}
	for name, mk := range impls {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 120; seed++ {
				res := sim.Run(sim.Config{
					Procs:     2,
					Object:    mk(),
					Env:       sim.Script(workload()),
					Scheduler: sim.Random(seed),
					MaxSteps:  500,
				})
				if res.Err != nil {
					t.Fatalf("seed %d: %v", seed, res.Err)
				}
				if !safety.Linearizable(spec, res.H) {
					t.Fatalf("seed %d: not linearizable: %s", seed, res.H)
				}
			}
		})
	}
}

func TestCASQueueLinearizableExhaustive(t *testing.T) {
	spec := safety.QueueSpec{}
	rep, err := slx.New(
		slx.WithProcs(2),
		slx.WithObject(func() sim.Object { return NewCASQueue() }),
		slx.WithEnv(func() sim.Environment {
			return sim.Script(map[int][]sim.Invocation{
				1: {{Op: "enq", Arg: "v1"}, {Op: "deq"}},
				2: {{Op: "enq", Arg: "v2"}, {Op: "deq"}},
			})
		}),
		slx.WithDepth(14),
	).Explore(slx.SafetyFunc("queue-linearizability", func(h history.History) bool {
		return safety.Linearizable(spec, h)
	}))
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("exhaustive check failed: %s (witness %v)", rep.Failures()[0], rep.Witness())
	}
}

func TestLockedQueueBlocksOnCrashInCriticalSection(t *testing.T) {
	// Crash p1 after it acquired the lock (mid-operation): p2 spins
	// forever — the blocking failure the paper's non-blocking systems
	// exclude.
	res := sim.Run(sim.Config{
		Procs:  2,
		Object: NewLocked(),
		Env: sim.Script(map[int][]sim.Invocation{
			1: {{Op: "enq", Arg: "v1"}},
			2: {{Op: "deq"}},
		}),
		Scheduler: sim.Seq(
			// p1: invoke + flag write + turn write + flag read (acquired,
			// mid-section) then crash.
			sim.Limit(sim.Solo(1), 4),
			sim.Fixed([]sim.Decision{{Proc: 1, Crash: true}}),
			sim.Limit(sim.Solo(2), 200),
		),
		MaxSteps: 300,
	})
	if res.Err != nil {
		t.Fatalf("run error: %v", res.Err)
	}
	if !res.H.Pending(2) {
		t.Fatal("p2 must spin forever behind the dead lock holder")
	}
	e := liveness.FromResult(res, 50)
	// p2 takes infinitely many steps alone and never progresses:
	// obstruction-freedom (and hence (1,1)-freedom) is violated.
	if (liveness.LK{L: 1, K: 1}).Holds(e) {
		t.Error("the blocked run must violate (1,1)-freedom")
	}
}

func TestCASQueueSurvivesCrashMidOperation(t *testing.T) {
	// The same crash point cannot block the CAS queue.
	res := sim.Run(sim.Config{
		Procs:  2,
		Object: NewCASQueue(),
		Env: sim.Script(map[int][]sim.Invocation{
			1: {{Op: "enq", Arg: "v1"}},
			2: {{Op: "deq"}},
		}),
		Scheduler: sim.Seq(
			sim.Limit(sim.Solo(1), 2), // invoke + state read, pre-CAS
			sim.Fixed([]sim.Decision{{Proc: 1, Crash: true}}),
			sim.Limit(sim.Solo(2), 100),
		),
		MaxSteps: 200,
	})
	if res.H.Pending(2) {
		t.Fatal("p2 must complete despite p1's crash")
	}
	if !safety.Linearizable(safety.QueueSpec{}, res.H) {
		t.Fatalf("history must stay linearizable: %s", res.H)
	}
}

func TestCASQueueLockFreeUnderContention(t *testing.T) {
	env := sim.EnvironmentFunc(func(proc int, v *sim.View) (sim.Invocation, bool) {
		if len(v.H.Project(proc))%4 < 2 {
			return sim.Invocation{Op: "enq", Arg: "p"}, true
		}
		return sim.Invocation{Op: "deq"}, true
	})
	res := sim.Run(sim.Config{
		Procs:     2,
		Object:    NewCASQueue(),
		Env:       env,
		Scheduler: sim.Limit(sim.Alternate(1, 2), 400),
		MaxSteps:  400,
	})
	e := liveness.FromResult(res, 0)
	if !(liveness.LLockFreedom{L: 1}).Holds(e) {
		t.Error("the CAS queue is lock-free: someone always completes")
	}
}

func TestQueueSequentialFIFO(t *testing.T) {
	res := sim.Run(sim.Config{
		Procs:  1,
		Object: NewCASQueue(),
		Env: sim.Script(map[int][]sim.Invocation{
			1: {
				{Op: "deq"},
				{Op: "enq", Arg: "a"}, {Op: "enq", Arg: "b"},
				{Op: "deq"}, {Op: "deq"}, {Op: "deq"},
			},
		}),
		Scheduler: &sim.RoundRobin{},
		MaxSteps:  100,
	})
	var resps []history.Value
	for _, op := range res.H.Operations() {
		if op.Name == "deq" && op.Done {
			resps = append(resps, op.Val)
		}
	}
	want := []history.Value{safety.EmptyResp, "a", "b", safety.EmptyResp}
	if len(resps) != len(want) {
		t.Fatalf("deq responses = %v", resps)
	}
	for i := range want {
		if resps[i] != want[i] {
			t.Fatalf("deq[%d] = %v, want %v", i, resps[i], want[i])
		}
	}
}
