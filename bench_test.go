package repro_test

// One benchmark per experiment of DESIGN.md's per-experiment index. The
// E-series benchmarks regenerate the paper's figures/theorems (their first
// iteration also asserts the paper's qualitative shape); the P-series
// measures the substrate.

import (
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/base"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/liveness"
	"repro/internal/safety"
	"repro/internal/sim"
	"repro/internal/tm"
	"repro/slx"
)

// E1 — Figure 1(a): the consensus (l,k) plane.
func BenchmarkFigure1aConsensusPlane(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pc, err := core.Figure1a(4)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			s, _ := pc.StrongestImplementable()
			w, _ := pc.WeakestNonImplementable()
			b.Logf("\n%sstrongest white %v, weakest black %v", pc.Render(), s, w)
			if s != (core.LKPoint{L: 1, K: 1}) || w != (core.LKPoint{L: 1, K: 2}) {
				b.Fatalf("panel (a) shape mismatch: %v %v", s, w)
			}
		}
	}
}

// E2 — Figure 1(b): the TM opacity (l,k) plane.
func BenchmarkFigure1bTMPlane(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pc := core.Figure1b(4)
		if i == 0 {
			s, _ := pc.StrongestImplementable()
			w, _ := pc.WeakestNonImplementable()
			b.Logf("\n%sstrongest white %v, weakest black %v", pc.Render(), s, w)
			if s != (core.LKPoint{L: 1, K: 4}) || w != (core.LKPoint{L: 2, K: 2}) {
				b.Fatalf("panel (b) shape mismatch: %v %v", s, w)
			}
		}
	}
}

// E3 — Corollary 4.5: F1 ∩ F2 = ∅ for consensus, so G_max = ∅ and no
// weakest excluding liveness exists.
func BenchmarkCorollary45GmaxEmpty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f1 := core.NewHistorySet("F1", adversary.ConsensusF1(0, 1)...)
		f2 := core.NewHistorySet("F2", adversary.ConsensusF2(0, 1)...)
		g := core.Gmax(f1, f2)
		if !g.Empty() {
			b.Fatal("Gmax must be empty")
		}
	}
}

// E4 — Corollary 4.6: the swapped TM adversary sets are disjoint.
func BenchmarkCorollary46TMGmaxEmpty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a1 := adversary.NewTMStarve(1, 2)
		h1 := a1.Attack(tm.NewI12(2), 2, 200).H
		a2 := adversary.NewTMStarve(2, 1)
		h2 := a2.Attack(tm.NewI12(2), 2, 200).H
		g := core.Gmax(core.NewHistorySet("F1", h1), core.NewHistorySet("F2", h2))
		if !g.Empty() {
			b.Fatal("TM Gmax must be empty")
		}
	}
}

// E5 — Theorem 4.9 (and Corollaries 4.10/4.11): the trivial
// implementations give incomparable liveness properties.
func BenchmarkTheorem49TrivialImpls(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := core.CheckTheorem49(5)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Holds() {
			b.Fatalf("Theorem 4.9 failed:\n%s", r)
		}
	}
}

// E6 — Theorem 5.2: strongest/weakest points for register consensus.
func BenchmarkTheorem52(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pc, err := core.Figure1a(3)
		if err != nil {
			b.Fatal(err)
		}
		s, okS := pc.StrongestImplementable()
		w, okW := pc.WeakestNonImplementable()
		if !okS || !okW || s != (core.LKPoint{L: 1, K: 1}) || w != (core.LKPoint{L: 1, K: 2}) {
			b.Fatalf("Theorem 5.2 mismatch: %v %v", s, w)
		}
	}
}

// E7 — Theorem 5.3: strongest/weakest points for TM + opacity, and their
// incomparability.
func BenchmarkTheorem53(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pc := core.Figure1b(4)
		s, okS := pc.StrongestImplementable()
		w, okW := pc.WeakestNonImplementable()
		if !okS || !okW || s != (core.LKPoint{L: 1, K: 4}) || w != (core.LKPoint{L: 2, K: 2}) {
			b.Fatalf("Theorem 5.3 mismatch: %v %v", s, w)
		}
		if s.Comparable(w) {
			b.Fatal("(1,n) and (2,2) must be incomparable")
		}
	}
}

// E8 — Lemma 5.4: I12 ensures opacity, property S, and (1,2)-freedom.
func BenchmarkLemma54I12(b *testing.B) {
	tpl := map[int]tm.Txn{
		1: {Accesses: []tm.Access{{Write: true, Var: "x", Val: 1}}},
		2: {Accesses: []tm.Access{{Write: true, Var: "x", Val: 2}}},
	}
	for i := 0; i < b.N; i++ {
		res := sim.Run(sim.Config{
			Procs:     2,
			Object:    tm.NewI12(2),
			Env:       tm.TxnLoop(tpl),
			Scheduler: sim.Limit(sim.Alternate(1, 2), 400),
			MaxSteps:  400,
		})
		if !(safety.PropertyS{}).Holds(res.H) {
			b.Fatal("I12 must ensure S")
		}
		e := liveness.FromResult(res, 0)
		if !(liveness.LK{L: 1, K: 2, Good: liveness.TMGood()}).Holds(e) {
			b.Fatal("I12 must ensure (1,2)-freedom")
		}
	}
}

// E9 — Section 5.3 counterexample: two incomparable minimal black points
// against property S.
func BenchmarkSection53Counterexample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pc := core.Section53Plane(4)
		mb := pc.MinimalBlacks()
		if len(mb) != 2 {
			b.Fatalf("want two minimal blacks, got %v", mb)
		}
		if _, ok := pc.WeakestNonImplementable(); ok {
			b.Fatal("no unique weakest may exist for S")
		}
	}
}

// E10 — Theorem 4.4 on finite models (both the positive and the negative
// instance, plus the exhaustive sweep).
func BenchmarkTheorem44Gmax(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, m := range []*core.FiniteModel{core.ModelWithWeakest(), core.ModelWithoutWeakest()} {
			r, err := m.CheckTheorem44()
			if err != nil {
				b.Fatal(err)
			}
			if !r.Agrees {
				b.Fatal("Theorem 4.4 must hold")
			}
		}
	}
}

// P1 — simulator step throughput.
func BenchmarkSimSteps(b *testing.B) {
	obj := consensus.NewCASBased()
	res := sim.Run(sim.Config{
		Procs:     2,
		Object:    obj,
		Env:       consensus.ProposeForever(map[int]history.Value{1: 0, 2: 1}),
		Scheduler: sim.Limit(sim.Alternate(1, 2), b.N),
		MaxSteps:  b.N + 1,
	})
	if res.Err != nil {
		b.Fatal(res.Err)
	}
	b.ReportMetric(float64(res.Steps), "steps/run")
}

// P1 — linearizability checker cost against history length. The batch
// check replays the history through the linearizability monitor, the one
// decision procedure, whose masks index pending slots; ops=128 runs past
// the 63 operations a mask indexed by history position could hold.
func BenchmarkLinearizabilityChecker(b *testing.B) {
	for _, ops := range []int{8, 16, 24, 128} {
		b.Run(fmt.Sprintf("ops=%d", ops), func(b *testing.B) {
			h := concurrentRegisterHistory(ops)
			spec := safety.RegisterSpec{Initial: 0}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !safety.Linearizable(spec, h) {
					b.Fatal("history must be linearizable")
				}
			}
		})
	}
}

// concurrentRegisterHistory builds a linearizable history of ops
// operations with overlapping writes and reads.
func concurrentRegisterHistory(ops int) history.History {
	var h history.History
	val := 0
	for i := 0; i < ops/2; i++ {
		h = append(h,
			history.Invoke(1, "write", i),
			history.Invoke(2, "read", nil),
			history.Response(2, "read", val),
			history.Response(1, "write", history.OK),
		)
		val = i
	}
	return h
}

// P1 — opacity checker cost against transaction count.
func BenchmarkOpacityChecker(b *testing.B) {
	for _, txs := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("txs=%d", txs), func(b *testing.B) {
			h := tmChainHistory(txs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !safety.Opaque(h) {
					b.Fatal("history must be opaque")
				}
			}
		})
	}
}

// tmChainHistory builds txs sequentially-overlapping committed
// transactions on two variables.
func tmChainHistory(txs int) history.History {
	var h history.History
	val := 0
	for i := 0; i < txs; i++ {
		p := i%2 + 1
		h = append(h,
			history.Invoke(p, history.TMStart, nil),
			history.Response(p, history.TMStart, history.OK),
			history.InvokeObj(p, history.TMRead, "x", nil),
			history.ResponseObj(p, history.TMRead, "x", val),
			history.InvokeObj(p, history.TMWrite, "x", val+1),
			history.ResponseObj(p, history.TMWrite, "x", history.OK),
			history.Invoke(p, history.TMTryC, nil),
			history.Response(p, history.TMTryC, history.Commit),
		)
		val++
	}
	return h
}

// P1 — TM commit throughput under contention, per implementation.
func BenchmarkTMCommitThroughput(b *testing.B) {
	tpl := map[int]tm.Txn{
		1: {Accesses: []tm.Access{{Write: true, Var: "x", Val: 1}}},
		2: {Accesses: []tm.Access{{Write: true, Var: "x", Val: 2}}},
	}
	impls := []struct {
		name string
		mk   func() sim.Object
	}{
		{"I12", func() sim.Object { return tm.NewI12(2) }},
		{"GlobalCAS", func() sim.Object { return tm.NewGlobalCAS(2) }},
	}
	for _, impl := range impls {
		b.Run(impl.name, func(b *testing.B) {
			commits := 0
			steps := 0
			for i := 0; i < b.N; i++ {
				res := sim.Run(sim.Config{
					Procs:     2,
					Object:    impl.mk(),
					Env:       tm.TxnLoop(tpl),
					Scheduler: sim.Limit(sim.Alternate(1, 2), 400),
					MaxSteps:  400,
				})
				steps += res.Steps
				for _, e := range res.H {
					if e.Kind == history.KindResponse && e.Val == history.Commit {
						commits++
					}
				}
			}
			b.ReportMetric(float64(commits)/float64(b.N), "commits/run")
			b.ReportMetric(float64(steps)/float64(b.N), "steps/run")
		})
	}
}

// P1 — bivalence adversary cost against schedule length.
func BenchmarkBivalenceAdversary(b *testing.B) {
	for _, steps := range []int{40, 80, 160} {
		b.Run(fmt.Sprintf("steps=%d", steps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				adv := &adversary.Bivalence{
					NewObject: func() sim.Object { return consensus.NewCommitAdoptOF(2) },
					V1:        0,
					V2:        1,
				}
				res, err := adv.Run(steps)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(res.Probes), "probes")
				}
			}
		})
	}
}

// P1 — exhaustive exploration throughput.
func BenchmarkExhaustiveExplore(b *testing.B) {
	prop := safety.AgreementValidity{}
	for i := 0; i < b.N; i++ {
		rep, err := slx.New(
			slx.WithProcs(2),
			slx.WithObject(func() sim.Object { return consensus.NewCommitAdoptOF(2) }),
			slx.WithEnv(func() sim.Environment {
				return consensus.ProposeOnce(map[int]history.Value{1: 0, 2: 1})
			}),
			slx.WithDepth(10),
		).Explore(slx.SafetyFunc("agreement+validity", prop.Holds))
		if err != nil {
			b.Fatal(err)
		}
		if !rep.OK() {
			b.Fatalf("violation: %s", rep.Failures()[0])
		}
		if i == 0 {
			b.ReportMetric(float64(rep.Prefixes), "prefixes")
		}
	}
}

// P1 — base-object step overhead through the full scheduler handshake.
func BenchmarkBaseObjectStep(b *testing.B) {
	reg := base.NewRegister(new(base.Mem), "r", 0)
	obj := sim.ObjectFunc(func(p *sim.Proc, inv sim.Invocation) (v history.Value) {
		p.Exec("read", func() { v = reg.ReadW(p) })
		return v
	})
	res := sim.Run(sim.Config{
		Procs:     1,
		Object:    obj,
		Env:       sim.Repeat(sim.Invocation{Op: "read"}),
		Scheduler: &sim.RoundRobin{},
		MaxSteps:  b.N + 1,
	})
	if res.Err != nil {
		b.Fatal(res.Err)
	}
}
