package explore

import (
	"strings"
	"testing"

	"repro/internal/base"
	"repro/internal/consensus"
	"repro/internal/history"
	"repro/internal/safety"
	"repro/internal/sim"
	"repro/internal/tm"
)

func TestExhaustiveCommitAdoptConsensusSafety(t *testing.T) {
	prop := safety.AgreementValidity{}
	st, err := Run(Config{
		Procs:     2,
		NewObject: func() sim.Object { return consensus.NewCommitAdoptOF(2) },
		NewEnv: func() sim.Environment {
			return consensus.ProposeOnce(map[int]history.Value{1: 0, 2: 1})
		},
		Depth:       13,
		NewMonitors: checkSafety("agreement+validity", prop.Holds),
	})
	if err != nil {
		t.Fatalf("exhaustive check failed: %v (witness %v)", err, st.Witness)
	}
	if st.Prefixes < 1000 {
		t.Errorf("expected substantial exploration, got %d prefixes", st.Prefixes)
	}
}

func TestExhaustiveCommitAdoptWithCrashes(t *testing.T) {
	prop := safety.AgreementValidity{}
	st, err := Run(Config{
		Procs:     2,
		NewObject: func() sim.Object { return consensus.NewCommitAdoptOF(2) },
		NewEnv: func() sim.Environment {
			return consensus.ProposeOnce(map[int]history.Value{1: 0, 2: 1})
		},
		Depth:       9,
		Crashes:     1,
		NewMonitors: checkSafety("agreement+validity", prop.Holds),
	})
	if err != nil {
		t.Fatalf("exhaustive check with crashes failed: %v (witness %v)", err, st.Witness)
	}
	if st.Prefixes == 0 {
		t.Error("no exploration happened")
	}
}

func TestExhaustiveI12OpacityAndS(t *testing.T) {
	tpl := map[int]tm.Txn{
		1: {Accesses: []tm.Access{{Write: true, Var: "x", Val: 1}}},
		2: {Accesses: []tm.Access{{Var: "x"}}},
	}
	propS := safety.PropertyS{}
	st, err := Run(Config{
		Procs:     2,
		NewObject: func() sim.Object { return tm.NewI12(2) },
		NewEnv:    func() sim.Environment { return tm.TxnLoop(tpl) },
		Depth:     12,
		NewMonitors: checkSafety("opacity+S", func(h history.History) bool {
			return propS.Holds(h)
		}),
	})
	if err != nil {
		t.Fatalf("exhaustive I12 check failed: %v (witness %v)", err, st.Witness)
	}
	t.Logf("explored %d prefixes, %d steps", st.Prefixes, st.Steps)
}

func TestExhaustiveGlobalCASOpacity(t *testing.T) {
	tpl := map[int]tm.Txn{
		1: {Accesses: []tm.Access{{Write: true, Var: "x", Val: 1}}},
		2: {Accesses: []tm.Access{{Write: true, Var: "x", Val: 2}}},
	}
	st, err := Run(Config{
		Procs:       2,
		NewObject:   func() sim.Object { return tm.NewGlobalCAS(2) },
		NewEnv:      func() sim.Environment { return tm.TxnLoop(tpl) },
		Depth:       12,
		NewMonitors: checkSafety("opacity", safety.Opaque),
	})
	if err != nil {
		t.Fatalf("exhaustive GlobalCAS check failed: %v (witness %v)", err, st.Witness)
	}
	t.Logf("explored %d prefixes, %d steps", st.Prefixes, st.Steps)
}

// brokenConsensus decides its own proposal immediately: agreement is
// violated whenever two processes with different values both decide.
type brokenConsensus struct {
	r *base.Register
}

func (b *brokenConsensus) Apply(p *sim.Proc, inv sim.Invocation) history.Value {
	p.Exec("write", func() { b.r.WriteW(p, inv.Arg) })
	return inv.Arg
}

func TestExplorerFindsViolation(t *testing.T) {
	prop := safety.AgreementValidity{}
	st, err := Run(Config{
		Procs: 2,
		NewObject: func() sim.Object {
			return &brokenConsensus{r: base.NewRegister(new(base.Mem), "r", nil)}
		},
		NewEnv: func() sim.Environment {
			return consensus.ProposeOnce(map[int]history.Value{1: 0, 2: 1})
		},
		Depth:       6,
		NewMonitors: checkSafety("agreement+validity", prop.Holds),
	})
	if err == nil {
		t.Fatal("explorer must find the agreement violation")
	}
	if st.Witness == nil {
		t.Fatal("witness schedule must be recorded")
	}
	if !strings.Contains(err.Error(), "agreement+validity") {
		t.Errorf("error should name the property: %v", err)
	}
	// The witness replays to a violating history.
	res := sim.Run(sim.Config{
		Procs:     2,
		Object:    &brokenConsensus{r: base.NewRegister(new(base.Mem), "r", nil)},
		Env:       consensus.ProposeOnce(map[int]history.Value{1: 0, 2: 1}),
		Scheduler: sim.Fixed(st.Witness),
		MaxSteps:  len(st.Witness) + 1,
	})
	if prop.Holds(res.H) {
		t.Error("witness schedule must reproduce the violation")
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	prop := safety.AgreementValidity{}
	mk := func(workers int) Stats {
		st, err := Run(Config{
			Procs:     2,
			NewObject: func() sim.Object { return consensus.NewCommitAdoptOF(2) },
			NewEnv: func() sim.Environment {
				return consensus.ProposeOnce(map[int]history.Value{1: 0, 2: 1})
			},
			Depth:       11,
			Workers:     workers,
			NewMonitors: checkSafety("agreement+validity", prop.Holds),
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return *st
	}
	seq := mk(1)
	par := mk(4)
	if seq.Prefixes != par.Prefixes {
		t.Errorf("parallel explored %d prefixes, sequential %d", par.Prefixes, seq.Prefixes)
	}
}

func TestParallelFindsViolation(t *testing.T) {
	prop := safety.AgreementValidity{}
	st, err := Run(Config{
		Procs: 2,
		NewObject: func() sim.Object {
			return &brokenConsensus{r: base.NewRegister(new(base.Mem), "r", nil)}
		},
		NewEnv: func() sim.Environment {
			return consensus.ProposeOnce(map[int]history.Value{1: 0, 2: 1})
		},
		Depth:       6,
		Workers:     4,
		NewMonitors: checkSafety("agreement+validity", prop.Holds),
	})
	if err == nil {
		t.Fatal("parallel explorer must find the violation")
	}
	if st.Witness == nil {
		t.Fatal("witness must be recorded")
	}
}

func TestExplorerConfigErrors(t *testing.T) {
	if _, err := Run(Config{Procs: 0}); err == nil {
		t.Error("zero procs must be rejected")
	}
	if _, err := Run(Config{Procs: 1}); err == nil {
		t.Error("missing NewMonitors must be rejected")
	}
}
