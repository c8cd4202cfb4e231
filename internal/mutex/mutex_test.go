package mutex

import (
	"fmt"
	"testing"

	"repro/internal/history"
	"repro/internal/liveness"
	"repro/internal/safety"
	"repro/internal/sim"
	"repro/slx"
)

func acquisitions(h history.History) map[int]int {
	out := make(map[int]int)
	for _, e := range h {
		if e.Kind == history.KindResponse && e.Val == Locked {
			out[e.Proc]++
		}
	}
	return out
}

func runLock(t *testing.T, obj sim.Object, procs int, sched sim.Scheduler, maxSteps int) *sim.Result {
	t.Helper()
	res := sim.Run(sim.Config{
		Procs:     procs,
		Object:    obj,
		Env:       AcquireReleaseLoop(procs),
		Scheduler: sched,
		MaxSteps:  maxSteps,
	})
	if res.Err != nil {
		t.Fatalf("run error: %v", res.Err)
	}
	if !(safety.MutualExclusion{}).Holds(res.H) {
		t.Fatalf("mutual exclusion violated: %s", res.H)
	}
	return res
}

func TestPetersonMutualExclusionRandom(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		runLock(t, NewPeterson(), 2, sim.Limit(sim.Random(seed), 300), 300)
	}
}

func TestPetersonExhaustive(t *testing.T) {
	prop := safety.MutualExclusion{}
	rep, err := slx.New(
		slx.WithProcs(2),
		slx.WithObject(func() sim.Object { return NewPeterson() }),
		slx.WithEnv(func() sim.Environment { return AcquireReleaseLoop(2) }),
		slx.WithDepth(14),
	).Explore(slx.SafetyFunc("mutual-exclusion", prop.Holds))
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("exhaustive check failed: %s (witness %v)", rep.Failures()[0], rep.Witness())
	}
	if rep.Prefixes < 1000 {
		t.Errorf("expected substantial exploration, got %d prefixes", rep.Prefixes)
	}
}

func TestPetersonStarvationFreeUnderFairSchedules(t *testing.T) {
	schedulers := map[string]func() sim.Scheduler{
		"round-robin": func() sim.Scheduler { return sim.Limit(&sim.RoundRobin{}, 600) },
		"alternate":   func() sim.Scheduler { return sim.Limit(sim.Alternate(1, 2), 600) },
		"random":      func() sim.Scheduler { return sim.Limit(sim.Random(3), 600) },
	}
	for name, mk := range schedulers {
		t.Run(name, func(t *testing.T) {
			res := runLock(t, NewPeterson(), 2, mk(), 600)
			e := liveness.FromResult(res, 0)
			if !StarvationFreedom().Holds(e) {
				t.Errorf("Peterson must be starvation-free under %s; acquisitions %v",
					name, acquisitions(res.H))
			}
		})
	}
}

func TestTASLockDeadlockFreeButNotStarvationFree(t *testing.T) {
	// Under the starvation adversary, p2 spins forever while p1 cycles.
	res := runLock(t, NewTASLock(), 2, sim.Limit(StarveTAS(2, 1), 800), 800)
	acq := acquisitions(res.H)
	if acq[2] != 0 {
		t.Fatalf("victim acquired %d times; the adversary failed", acq[2])
	}
	if acq[1] < 10 {
		t.Fatalf("owner should cycle many times, got %d", acq[1])
	}
	// The schedule is fair: both processes keep stepping.
	e := liveness.FromResult(res, 0)
	steppers := e.Steppers()
	if len(steppers) != 2 {
		t.Fatalf("unfair run: steppers %v", steppers)
	}
	if StarvationFreedom().Holds(e) {
		t.Error("starvation-freedom must fail for the TAS lock")
	}
	if !DeadlockFreedom().Holds(e) {
		t.Error("deadlock-freedom holds: the owner keeps acquiring")
	}
}

func TestPetersonResistsStarveTAS(t *testing.T) {
	// Against Peterson the same adversary cannot starve fairly: once the
	// victim has announced interest (flag+turn), the owner's re-acquire
	// spins, the holder-based condition stops granting the victim, and the
	// run stalls into the owner spinning — the victim is simply no longer
	// starved *and* stepped. Verify the adversary fails to produce a fair
	// starvation run: either the victim acquires, or the victim stops
	// taking steps (the run is not a fair counterexample).
	res := runLock(t, NewPeterson(), 2, sim.Limit(StarveTAS(2, 1), 800), 800)
	acq := acquisitions(res.H)
	e := liveness.FromResult(res, 0)
	steppers := e.Steppers()
	victimStepsForever := len(steppers) == 2
	if acq[2] == 0 && victimStepsForever {
		t.Fatalf("adversary fairly starved Peterson: acquisitions %v", acq)
	}
}

func TestTournamentMutualExclusion(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			for seed := int64(0); seed < 40; seed++ {
				runLock(t, NewTournament(n), n, sim.Limit(sim.Random(seed), 500), 500)
			}
		})
	}
}

func TestTournamentStarvationFreeUnderRoundRobin(t *testing.T) {
	res := runLock(t, NewTournament(4), 4, sim.Limit(&sim.RoundRobin{}, 4000), 4000)
	e := liveness.FromResult(res, 0)
	if !StarvationFreedom().Holds(e) {
		t.Errorf("tournament lock must be starvation-free under round-robin; acquisitions %v",
			acquisitions(res.H))
	}
}

func TestTournamentExhaustiveTwoProcs(t *testing.T) {
	prop := safety.MutualExclusion{}
	rep, err := slx.New(
		slx.WithProcs(2),
		slx.WithObject(func() sim.Object { return NewTournament(2) }),
		slx.WithEnv(func() sim.Environment { return AcquireReleaseLoop(2) }),
		slx.WithDepth(13),
	).Explore(slx.SafetyFunc("mutual-exclusion", prop.Holds))
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("exhaustive check failed: %s (witness %v)", rep.Failures()[0], rep.Witness())
	}
}

func TestHolderTracking(t *testing.T) {
	h := history.History{
		history.Invoke(1, OpAcquire, nil),
		history.Response(1, OpAcquire, Locked),
	}
	if holder(h) != 1 {
		t.Errorf("holder = %d, want 1", holder(h))
	}
	h = h.Append(history.Invoke(1, OpRelease, nil))
	if holder(h) != 0 {
		t.Errorf("holder after release invocation = %d, want 0", holder(h))
	}
}

func TestMutualExclusionChecker(t *testing.T) {
	prop := safety.MutualExclusion{}
	tests := []struct {
		name string
		h    history.History
		want bool
	}{
		{"empty", history.History{}, true},
		{"clean handoff", history.History{
			history.Invoke(1, OpAcquire, nil), history.Response(1, OpAcquire, Locked),
			history.Invoke(1, OpRelease, nil), history.Response(1, OpRelease, Unlocked),
			history.Invoke(2, OpAcquire, nil), history.Response(2, OpAcquire, Locked),
		}, true},
		{"two holders", history.History{
			history.Invoke(1, OpAcquire, nil), history.Response(1, OpAcquire, Locked),
			history.Invoke(2, OpAcquire, nil), history.Response(2, OpAcquire, Locked),
		}, false},
		{"release by non-holder", history.History{
			history.Invoke(1, OpAcquire, nil), history.Response(1, OpAcquire, Locked),
			history.Invoke(2, OpRelease, nil),
		}, false},
		{"acquire after release invocation ok", history.History{
			history.Invoke(1, OpAcquire, nil), history.Response(1, OpAcquire, Locked),
			history.Invoke(1, OpRelease, nil),
			history.Invoke(2, OpAcquire, nil), history.Response(2, OpAcquire, Locked),
			history.Response(1, OpRelease, Unlocked),
		}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := prop.Holds(tt.h); got != tt.want {
				t.Errorf("Holds = %v, want %v", got, tt.want)
			}
			if !safety.PrefixClosed(prop, tt.h) {
				t.Error("mutual exclusion must be prefix-closed")
			}
		})
	}
}
