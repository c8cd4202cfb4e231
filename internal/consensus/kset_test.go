package consensus

import (
	"testing"

	"repro/internal/history"
	"repro/internal/liveness"
	"repro/internal/safety"
	"repro/internal/sim"
	"repro/slx"
)

func TestKSetAgreementChecker(t *testing.T) {
	inv := func(p int, v history.Value) history.Event {
		return history.Invoke(p, safety.ConsensusPropose, v)
	}
	res := func(p int, v history.Value) history.Event {
		return history.Response(p, safety.ConsensusPropose, v)
	}
	tests := []struct {
		name string
		k    int
		h    history.History
		want bool
	}{
		{"two values ok for k=2", 2, history.History{
			inv(1, 1), inv(2, 2), inv(3, 3),
			res(1, 1), res(2, 2), res(3, 1),
		}, true},
		{"three values violate k=2", 2, history.History{
			inv(1, 1), inv(2, 2), inv(3, 3),
			res(1, 1), res(2, 2), res(3, 3),
		}, false},
		{"validity still applies", 2, history.History{
			inv(1, 1), res(1, 9),
		}, false},
		{"k=1 is consensus", 1, history.History{
			inv(1, 1), inv(2, 2), res(1, 1), res(2, 2),
		}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			prop := safety.KSetAgreement{K: tt.k}
			if got := prop.Holds(tt.h); got != tt.want {
				t.Errorf("Holds = %v, want %v", got, tt.want)
			}
			if !safety.PrefixClosed(prop, tt.h) {
				t.Error("k-set agreement must be prefix-closed")
			}
		})
	}
}

func TestDecideOwnSafeIffNAtMostK(t *testing.T) {
	// n = 2 <= k = 2: safe and wait-free under every schedule.
	prop2 := safety.KSetAgreement{K: 2}
	rep, err := slx.New(
		slx.WithProcs(2),
		slx.WithObject(func() sim.Object { return NewDecideOwn(2) }),
		slx.WithEnv(func() sim.Environment {
			return ProposeOnce(map[int]history.Value{1: 1, 2: 2})
		}),
		slx.WithDepth(8),
	).Explore(slx.SafetyFunc("2-set", prop2.Holds))
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("DecideOwn must be 2-set safe for n=2: %s (witness %v)", rep.Failures()[0], rep.Witness())
	}
	// n = 3 > k = 2: the checker catches the violation on any schedule
	// where all three decide.
	res := sim.Run(sim.Config{
		Procs:     3,
		Object:    NewDecideOwn(3),
		Env:       ProposeOnce(map[int]history.Value{1: 1, 2: 2, 3: 3}),
		Scheduler: &sim.RoundRobin{},
		MaxSteps:  100,
	})
	if prop2.Holds(res.H) {
		t.Fatal("three own-value decisions must violate 2-set agreement")
	}
	// It does satisfy 3-set agreement.
	if !(safety.KSetAgreement{K: 3}).Holds(res.H) {
		t.Error("n=3 own-value decisions satisfy 3-set agreement")
	}
}

func TestDecideOwnWaitFree(t *testing.T) {
	res := sim.Run(sim.Config{
		Procs:     2,
		Object:    NewDecideOwn(2),
		Env:       ProposeForever(map[int]history.Value{1: 1, 2: 2}),
		Scheduler: sim.Limit(sim.Alternate(1, 2), 200),
		MaxSteps:  200,
	})
	e := liveness.FromResult(res, 0)
	if !(liveness.WaitFreedom{}).Holds(e) {
		t.Error("DecideOwn is wait-free")
	}
}

func TestFirstAnnouncedExplorerFindsKSetViolation(t *testing.T) {
	// The plausible candidate for n=3, k=2: the explorer finds the
	// reverse-order interleaving on which three distinct values are
	// decided.
	prop := safety.KSetAgreement{K: 2}
	rep, err := slx.New(
		slx.WithProcs(3),
		slx.WithObject(func() sim.Object { return NewFirstAnnounced(3) }),
		slx.WithEnv(func() sim.Environment {
			return ProposeOnce(map[int]history.Value{1: 1, 2: 2, 3: 3})
		}),
		slx.WithDepth(9),
	).Explore(slx.SafetyFunc("2-set", prop.Holds))
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if rep.OK() {
		t.Fatal("the explorer must find a 2-set violation for FirstAnnounced with n=3")
	}
	if rep.Witness() == nil {
		t.Fatal("violation must come with a witness schedule")
	}
}

func TestCommitAdoptIsKSetSafe(t *testing.T) {
	// Consensus ensures k-set agreement for every k >= 1.
	for seed := int64(0); seed < 50; seed++ {
		res := sim.Run(sim.Config{
			Procs:     3,
			Object:    NewCommitAdoptOF(3),
			Env:       ProposeOnce(map[int]history.Value{1: 1, 2: 2, 3: 3}),
			Scheduler: sim.Random(seed),
			MaxSteps:  1500,
		})
		if !(safety.KSetAgreement{K: 2}).Holds(res.H) {
			t.Fatalf("seed %d: consensus decisions violate 2-set: %s", seed, res.H)
		}
	}
}
