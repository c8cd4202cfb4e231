package repro_test

// Benchmarks for the extension substrates: Section 6 experiments, k-set
// agreement, the software snapshot ablation, the DSTM obstruction-free TM,
// locks, queues, and parallel exploration.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/adversary"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/liveness"
	"repro/internal/mutex"
	"repro/internal/queue"
	"repro/internal/safety"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/tm"
	"repro/slx"
)

// E11 — Section 6: the (n,x)-liveness family is totally ordered; strongest
// implementable (n,0), weakest non-implementable (n,1).
func BenchmarkSection6NXLiveness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := core.NXConsensus(2)
		if err != nil {
			b.Fatal(err)
		}
		s, okS := c.StrongestImplementable()
		w, okW := c.WeakestNonImplementable()
		if !okS || !okW || s != 0 || w != 1 {
			b.Fatalf("Section 6 mismatch: x=%d/%d", s, w)
		}
	}
}

// E12 — k-set agreement corollary: swapped adversary sets are disjoint.
func BenchmarkKSetGmaxEmpty(b *testing.B) {
	values := []history.Value{10, 20, 30}
	for i := 0; i < b.N; i++ {
		f1 := core.NewHistorySet("kF1", adversary.KSetF1(2, values)...)
		f2 := core.NewHistorySet("kF2", adversary.KSetF2(2, values)...)
		if !core.Gmax(f1, f2).Empty() {
			b.Fatal("k-set Gmax must be empty")
		}
	}
}

// Ablation — Algorithm 1 on the hardware snapshot primitive versus the
// software snapshot from registers: same guarantees, different step cost.
func BenchmarkI12SnapshotAblation(b *testing.B) {
	tpl := map[int]tm.Txn{
		1: {Accesses: []tm.Access{{Write: true, Var: "x", Val: 1}}},
		2: {Accesses: []tm.Access{{Write: true, Var: "x", Val: 2}}},
	}
	impls := []struct {
		name string
		mk   func() sim.Object
	}{
		{"hardware", func() sim.Object { return tm.NewI12(2) }},
		{"software", func() sim.Object {
			return tm.NewI12WithSnapshot(2, snapshot.New("R", 2, 0))
		}},
	}
	for _, impl := range impls {
		b.Run(impl.name, func(b *testing.B) {
			commits := 0
			for i := 0; i < b.N; i++ {
				res := sim.Run(sim.Config{
					Procs:     2,
					Object:    impl.mk(),
					Env:       tm.TxnLoop(tpl),
					Scheduler: sim.Limit(sim.Alternate(1, 2), 400),
					MaxSteps:  400,
				})
				for _, e := range res.H {
					if e.Kind == history.KindResponse && e.Val == history.Commit {
						commits++
					}
				}
			}
			b.ReportMetric(float64(commits)/float64(b.N), "commits/run")
		})
	}
}

// Ablation — TM implementation progress classes under the starvation
// adversary: all three are starved (local progress is impossible with
// opacity), with different per-cycle costs.
func BenchmarkTMStarveAcrossImplementations(b *testing.B) {
	impls := []struct {
		name string
		mk   func() sim.Object
	}{
		{"I12", func() sim.Object { return tm.NewI12(2) }},
		{"GlobalCAS", func() sim.Object { return tm.NewGlobalCAS(2) }},
		{"DSTM", func() sim.Object { return tm.NewDSTM(2) }},
	}
	for _, impl := range impls {
		b.Run(impl.name, func(b *testing.B) {
			loops := 0
			for i := 0; i < b.N; i++ {
				adv := adversary.NewTMStarve(1, 2)
				res := adv.Attack(impl.mk(), 2, 600)
				if res.Err != nil {
					b.Fatal(res.Err)
				}
				if adv.VictimCommitted() {
					b.Fatal("victim must never commit")
				}
				loops += adv.Loops()
			}
			b.ReportMetric(float64(loops)/float64(b.N), "starvation-cycles/run")
		})
	}
}

// Locks: acquisitions per 600-step fair run, Peterson vs TAS vs tournament.
func BenchmarkLockThroughput(b *testing.B) {
	impls := []struct {
		name  string
		procs int
		mk    func() sim.Object
	}{
		{"Peterson/2", 2, func() sim.Object { return mutex.NewPeterson() }},
		{"TAS/2", 2, func() sim.Object { return mutex.NewTASLock() }},
		{"Tournament/4", 4, func() sim.Object { return mutex.NewTournament(4) }},
	}
	for _, impl := range impls {
		b.Run(impl.name, func(b *testing.B) {
			acq := 0
			for i := 0; i < b.N; i++ {
				res := sim.Run(sim.Config{
					Procs:     impl.procs,
					Object:    impl.mk(),
					Env:       mutex.AcquireReleaseLoop(impl.procs),
					Scheduler: sim.Limit(&sim.RoundRobin{}, 600),
					MaxSteps:  600,
				})
				for _, e := range res.H {
					if e.Kind == history.KindResponse && e.Val == mutex.Locked {
						acq++
					}
				}
			}
			b.ReportMetric(float64(acq)/float64(b.N), "acquisitions/run")
		})
	}
}

// Queues: locked versus CAS queue operation throughput under contention.
func BenchmarkQueueThroughput(b *testing.B) {
	env := func() sim.Environment {
		return sim.EnvironmentFunc(func(proc int, v *sim.View) (sim.Invocation, bool) {
			if len(v.H.Project(proc))%4 < 2 {
				return sim.Invocation{Op: "enq", Arg: "v"}, true
			}
			return sim.Invocation{Op: "deq"}, true
		})
	}
	impls := []struct {
		name string
		mk   func() sim.Object
	}{
		{"locked", func() sim.Object { return queue.NewLocked() }},
		{"cas", func() sim.Object { return queue.NewCASQueue() }},
	}
	for _, impl := range impls {
		b.Run(impl.name, func(b *testing.B) {
			ops := 0
			for i := 0; i < b.N; i++ {
				res := sim.Run(sim.Config{
					Procs:     2,
					Object:    impl.mk(),
					Env:       env(),
					Scheduler: sim.Limit(sim.Alternate(1, 2), 400),
					MaxSteps:  400,
				})
				for _, e := range res.H {
					if e.Kind == history.KindResponse {
						ops++
					}
				}
			}
			b.ReportMetric(float64(ops)/float64(b.N), "ops/run")
		})
	}
}

// swObject runs the software snapshot's frames: "scan" responds with the
// scanned view, "update" writes the caller's own component.
type swObject struct{ sw *snapshot.SW }

func (o swObject) Apply(p *sim.Proc, inv sim.Invocation) history.Value {
	return sim.ApplyFrames(o, p, inv)
}

func (o swObject) Begin(p *sim.Proc, inv sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	if inv.Op == "scan" {
		return o.sw.ScanFrame(), nil, sim.StepPaused
	}
	return o.sw.UpdateFrame(p.ID()-1, inv.Arg), nil, sim.StepPaused
}

// Software snapshot: scan cost (steps) as interference grows.
func BenchmarkSoftwareSnapshotScanSteps(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			steps := 0
			for i := 0; i < b.N; i++ {
				obj := swObject{snapshot.New("R", n, 0)}
				script := map[int][]sim.Invocation{1: {{Op: "scan"}}}
				for p := 2; p <= n; p++ {
					script[p] = []sim.Invocation{{Op: "update", Arg: p}, {Op: "update", Arg: p * 10}}
				}
				res := sim.Run(sim.Config{
					Procs:     n,
					Object:    obj,
					Env:       sim.Script(script),
					Scheduler: sim.Limit(&sim.RoundRobin{}, 4000),
					MaxSteps:  4000,
				})
				steps += res.StepsBy[1]
			}
			b.ReportMetric(float64(steps)/float64(b.N), "scan-steps")
		})
	}
}

// Parallel exploration speedup.
func BenchmarkExploreParallel(b *testing.B) {
	prop := safety.AgreementValidity{}
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := slx.New(
					slx.WithProcs(2),
					slx.WithObject(func() sim.Object { return consensus.NewCommitAdoptOF(2) }),
					slx.WithEnv(func() sim.Environment {
						return consensus.ProposeOnce(map[int]history.Value{1: 0, 2: 1})
					}),
					slx.WithDepth(11),
					slx.WithWorkers(workers),
				).Explore(slx.SafetyFunc("agreement+validity", prop.Holds))
				if err != nil {
					b.Fatal(err)
				}
				if !rep.OK() {
					b.Fatalf("violation: %s", rep.Failures()[0])
				}
			}
		})
	}
}

// DSTM: the steal-scheduler livelock versus lockstep progress (the
// lock-free / obstruction-free boundary in numbers).
func BenchmarkDSTMLockstep(b *testing.B) {
	tpl := map[int]tm.Txn{
		1: {Accesses: []tm.Access{{Write: true, Var: "x", Val: 1}}},
		2: {Accesses: []tm.Access{{Write: true, Var: "x", Val: 2}}},
	}
	commits := 0
	for i := 0; i < b.N; i++ {
		res := sim.Run(sim.Config{
			Procs:     2,
			Object:    tm.NewDSTM(2),
			Env:       tm.TxnLoop(tpl),
			Scheduler: sim.Limit(sim.Alternate(1, 2), 600),
			MaxSteps:  600,
		})
		e := liveness.FromResult(res, 0)
		if !e.Fair() {
			b.Fatal("lockstep must be fair")
		}
		for _, ev := range res.H {
			if ev.Kind == history.KindResponse && ev.Val == history.Commit {
				commits++
			}
		}
	}
	b.ReportMetric(float64(commits)/float64(b.N), "commits/run")
}
