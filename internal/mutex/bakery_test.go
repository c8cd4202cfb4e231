package mutex

import (
	"fmt"
	"testing"

	"repro/internal/liveness"
	"repro/internal/safety"
	"repro/internal/sim"
	"repro/slx"
)

func TestBakeryMutualExclusionRandom(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			for seed := int64(0); seed < 60; seed++ {
				runLock(t, NewBakery(n), n, sim.Limit(sim.Random(seed), 600), 600)
			}
		})
	}
}

func TestBakeryExhaustiveShallow(t *testing.T) {
	prop := safety.MutualExclusion{}
	rep, err := slx.New(
		slx.WithProcs(2),
		slx.WithObject(func() sim.Object { return NewBakery(2) }),
		slx.WithEnv(func() sim.Environment { return AcquireReleaseLoop(2) }),
		slx.WithDepth(12),
		slx.WithWorkers(4),
	).Explore(slx.SafetyFunc("mutual-exclusion", prop.Holds))
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("exhaustive check failed: %s (witness %v)", rep.Failures()[0], rep.Witness())
	}
}

func TestBakeryStarvationFree(t *testing.T) {
	res := runLock(t, NewBakery(3), 3, sim.Limit(&sim.RoundRobin{}, 2500), 2500)
	e := liveness.FromResult(res, 0)
	if !StarvationFreedom().Holds(e) {
		t.Errorf("bakery must be starvation-free under round-robin; acquisitions %v",
			acquisitions(res.H))
	}
}

func TestBakeryFCFSUnderCrash(t *testing.T) {
	// A crashed process that held no ticket must not block the others.
	res := sim.Run(sim.Config{
		Procs:  2,
		Object: NewBakery(2),
		Env:    AcquireReleaseLoop(2),
		Scheduler: sim.Seq(
			sim.Fixed([]sim.Decision{{Proc: 2, Crash: true}}),
			sim.Limit(sim.Solo(1), 400),
		),
		MaxSteps: 450,
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if acquisitions(res.H)[1] < 5 {
		t.Errorf("p1 must keep acquiring solo; got %v", acquisitions(res.H))
	}
	if !(safety.MutualExclusion{}).Holds(res.H) {
		t.Error("mutual exclusion violated")
	}
}

func TestBakeryBlocksBehindCrashedTicketHolder(t *testing.T) {
	// The flip side: bakery is blocking — a process that crashes holding a
	// ticket (after its number write) wedges the others forever.
	res := sim.Run(sim.Config{
		Procs:  2,
		Object: NewBakery(2),
		Env:    AcquireReleaseLoop(2),
		Scheduler: sim.Seq(
			// p1: invoke + choosing write + 2 number reads + number write
			// (ticket taken, choosing still true or just cleared).
			sim.Limit(sim.Solo(1), 6),
			sim.Fixed([]sim.Decision{{Proc: 1, Crash: true}}),
			sim.Limit(sim.Solo(2), 300),
		),
		MaxSteps: 400,
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := acquisitions(res.H)[2]; got != 0 {
		t.Errorf("p2 acquired %d times behind a dead ticket holder; bakery is blocking", got)
	}
}
