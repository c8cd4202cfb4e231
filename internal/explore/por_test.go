package explore

import (
	"reflect"
	"testing"

	"repro/internal/base"
	"repro/internal/consensus"
	"repro/internal/history"
	"repro/internal/safety"
	"repro/internal/sim"
	"repro/internal/tm"
)

// footprintedBroken is brokenConsensus with declared footprints: it
// decides its own proposal (seeded agreement violation), so POR must
// still find a violation that full exploration finds.
type footprintedBroken struct {
	r *base.Register
}

func (b *footprintedBroken) Apply(p *sim.Proc, inv sim.Invocation) history.Value {
	p.Exec("write", func() { b.r.WriteW(p, inv.Arg) })
	return inv.Arg
}

func (b *footprintedBroken) Footprints() bool { return true }

// racyLock is a seeded deep bug: a test-and-test-and-set "lock" whose
// test and set are two separate register steps, so mutual exclusion is
// violated only on the interleavings where both processes read false
// before either writes — exactly the racy schedules a wrong reduction
// would be tempted to prune (the racing steps touch the same register,
// so POR must keep them ordered both ways).
type racyLock struct {
	held *base.Register
}

func (l *racyLock) Apply(p *sim.Proc, inv sim.Invocation) history.Value {
	switch inv.Op {
	case safety.LockAcquire:
		for {
			var held history.Value
			p.Exec("read", func() { held = l.held.ReadW(p) })
			if !held.(bool) {
				p.Exec("write", func() { l.held.WriteW(p, true) })
				return "locked"
			}
		}
	case safety.LockRelease:
		p.Exec("write", func() { l.held.WriteW(p, false) })
		return "unlocked"
	}
	return nil
}

func (l *racyLock) Footprints() bool { return true }

// porConfigs is the cross-check table: every example object is explored
// with and without POR and must produce the identical verdict.
func porConfigs() map[string]Config {
	prop := safety.AgreementValidity{}
	tpl := map[int]tm.Txn{
		1: {Accesses: []tm.Access{{Write: true, Var: "x", Val: 1}}},
		2: {Accesses: []tm.Access{{Var: "x"}}},
	}
	propS := safety.PropertyS{}
	return map[string]Config{
		"commit-adopt/agreement": {
			Procs:     2,
			NewObject: func() sim.Object { return consensus.NewCommitAdoptOF(2) },
			NewEnv: func() sim.Environment {
				return consensus.ProposeOnce(map[int]history.Value{1: 0, 2: 1})
			},
			Depth:       10,
			NewMonitors: checkSafety("agreement+validity", prop.Holds),
		},
		"commit-adopt/crashes": {
			Procs:     2,
			NewObject: func() sim.Object { return consensus.NewCommitAdoptOF(2) },
			NewEnv: func() sim.Environment {
				return consensus.ProposeOnce(map[int]history.Value{1: 0, 2: 1})
			},
			Depth:       7,
			Crashes:     1,
			NewMonitors: checkSafety("agreement+validity", prop.Holds),
		},
		"cas-consensus/agreement": {
			Procs:     3,
			NewObject: func() sim.Object { return consensus.NewCASBased() },
			NewEnv: func() sim.Environment {
				return consensus.ProposeOnce(map[int]history.Value{1: 0, 2: 1, 3: 2})
			},
			Depth:       8,
			NewMonitors: checkSafety("agreement+validity", prop.Holds),
		},
		"broken-consensus/violation": {
			Procs: 2,
			NewObject: func() sim.Object {
				return &footprintedBroken{r: base.NewRegister(new(base.Mem), "r", nil)}
			},
			NewEnv: func() sim.Environment {
				return consensus.ProposeOnce(map[int]history.Value{1: 0, 2: 1})
			},
			Depth:       6,
			NewMonitors: checkSafety("agreement+validity", prop.Holds),
		},
		"racy-lock/mutex-violation": {
			Procs:     2,
			NewObject: func() sim.Object { return &racyLock{held: base.NewRegister(new(base.Mem), "lock", false)} },
			NewEnv: func() sim.Environment {
				return sim.Script(map[int][]sim.Invocation{
					1: {{Op: safety.LockAcquire}, {Op: safety.LockRelease}},
					2: {{Op: safety.LockAcquire}, {Op: safety.LockRelease}},
				})
			},
			Depth:       10,
			NewMonitors: checkSafety("mutual-exclusion", safety.MutualExclusion{}.Holds),
		},
		"i12/property-s": {
			Procs:       2,
			NewObject:   func() sim.Object { return tm.NewI12(2) },
			NewEnv:      func() sim.Environment { return tm.TxnLoop(tpl) },
			Depth:       9,
			NewMonitors: checkSafety("opacity+S", propS.Holds),
		},
		"globalcas/opacity": {
			Procs:       2,
			NewObject:   func() sim.Object { return tm.NewGlobalCAS(2) },
			NewEnv:      func() sim.Environment { return tm.TxnLoop(tpl) },
			Depth:       9,
			NewMonitors: checkSafety("opacity", safety.Opaque),
		},
	}
}

// TestPORCrossCheck is the acceptance gate of the reduction: with and
// without POR every exploration must reach the identical verdict —
// in particular POR must never miss a violation full exploration finds —
// and POR must never explore more than the full tree.
func TestPORCrossCheck(t *testing.T) {
	for name, cfg := range porConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			full := cfg
			full.POR = false
			fst, ferr := Run(full)
			por := cfg
			por.POR = true
			pst, perr := Run(por)
			if (ferr == nil) != (perr == nil) {
				t.Fatalf("verdicts differ: full err=%v, POR err=%v", ferr, perr)
			}
			if ferr != nil && pst.Witness == nil {
				t.Fatal("POR violation must carry a witness")
			}
			if fst.Pruned != 0 {
				t.Errorf("full exploration pruned %d subtrees, want 0", fst.Pruned)
			}
			if pst.Prefixes > fst.Prefixes {
				t.Errorf("POR explored %d prefixes, full only %d", pst.Prefixes, fst.Prefixes)
			}
			t.Logf("prefixes full=%d por=%d pruned=%d (violation=%v)",
				fst.Prefixes, pst.Prefixes, pst.Pruned, ferr != nil)
		})
	}
}

// TestPORWitnessReplays checks that a POR witness is a real
// counterexample: replaying it reproduces a violating history.
func TestPORWitnessReplays(t *testing.T) {
	prop := safety.AgreementValidity{}
	cfg := porConfigs()["broken-consensus/violation"]
	cfg.POR = true
	st, err := Run(cfg)
	if err == nil {
		t.Fatal("POR must find the seeded agreement violation")
	}
	res := sim.Run(sim.Config{
		Procs:     2,
		Object:    &footprintedBroken{r: base.NewRegister(new(base.Mem), "r", nil)},
		Env:       consensus.ProposeOnce(map[int]history.Value{1: 0, 2: 1}),
		Scheduler: sim.Fixed(st.Witness),
		MaxSteps:  len(st.Witness) + 1,
	})
	if prop.Holds(res.H) {
		t.Errorf("witness %v replays to a non-violating history %s", st.Witness, res.H)
	}
}

// TestPORPrunes checks that the reduction actually prunes on a
// footprinted workload (the cross-check alone would pass with zero
// pruning).
func TestPORPrunes(t *testing.T) {
	cfg := porConfigs()["commit-adopt/agreement"]
	cfg.POR = true
	pst, err := Run(cfg)
	if err != nil {
		t.Fatalf("POR explore: %v", err)
	}
	if pst.Pruned == 0 {
		t.Fatal("POR pruned nothing on the register-based commit-adopt workload")
	}
	cfg.POR = false
	fst, err := Run(cfg)
	if err != nil {
		t.Fatalf("full explore: %v", err)
	}
	if pst.Prefixes >= fst.Prefixes {
		t.Fatalf("POR explored %d prefixes, full %d — no reduction", pst.Prefixes, fst.Prefixes)
	}
	t.Logf("commit-adopt depth-10: prefixes full=%d por=%d (%.1fx)", fst.Prefixes, pst.Prefixes,
		float64(fst.Prefixes)/float64(pst.Prefixes))
}

// TestPORUnfootprintedDegrades checks the degradation contract: an
// object that does not declare footprints explores the exact full tree
// (same prefixes and steps, zero pruning) even with POR enabled.
func TestPORUnfootprintedDegrades(t *testing.T) {
	prop := safety.AgreementValidity{}
	cfg := Config{
		Procs: 2,
		NewObject: func() sim.Object {
			// brokenConsensus (no Footprints method) from explore_test.go.
			return &brokenConsensus{r: base.NewRegister(new(base.Mem), "r", nil)}
		},
		NewEnv: func() sim.Environment {
			return consensus.ProposeOnce(map[int]history.Value{1: 0, 2: 1})
		},
		Depth:       5,
		NewMonitors: checkSafety("agreement+validity", prop.Holds),
	}
	fst, ferr := Run(cfg)
	cfg.POR = true
	pst, perr := Run(cfg)
	if (ferr == nil) != (perr == nil) {
		t.Fatalf("verdicts differ: full err=%v, POR err=%v", ferr, perr)
	}
	if pst.Pruned != 0 {
		t.Errorf("POR pruned %d subtrees without footprints", pst.Pruned)
	}
	if pst.Prefixes != fst.Prefixes || pst.Steps != fst.Steps {
		t.Errorf("degraded POR explored %d/%d, full %d/%d — trees differ",
			pst.Prefixes, pst.Steps, fst.Prefixes, fst.Steps)
	}
	if !reflect.DeepEqual(fst.Witness, pst.Witness) {
		t.Errorf("degraded POR witness %v differs from full %v", pst.Witness, fst.Witness)
	}
}

// TestPORParallelMatchesSequential checks that POR prunes the identical
// tree under Workers > 1: the first-level sleep sets are precomputed
// for the workers, so prefixes, steps and pruning counts all agree with
// the sequential reduction.
func TestPORParallelMatchesSequential(t *testing.T) {
	for _, name := range []string{"commit-adopt/agreement", "cas-consensus/agreement", "commit-adopt/crashes"} {
		cfg := porConfigs()[name]
		cfg.POR = true
		seq, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s sequential: %v", name, err)
		}
		cfg.Workers = 4
		par, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		if par.Prefixes != seq.Prefixes || par.Steps != seq.Steps || par.Pruned != seq.Pruned {
			t.Errorf("%s: parallel %d/%d/%d (prefixes/steps/pruned) != sequential %d/%d/%d",
				name, par.Prefixes, par.Steps, par.Pruned, seq.Prefixes, seq.Steps, seq.Pruned)
		}
	}
}
