package check_test

// One table-driven test per exported property constructor: every
// property must pass on a known-good run and fail — with a replayable
// witness — on a known-bad one. The bad cases use deliberately broken
// objects or starving schedules; witnesses are replayed through
// Checker.Replay and must reproduce the failing verdict.

import (
	"reflect"
	"testing"

	"repro/internal/service"
	"repro/slx"
	"repro/slx/check"
	"repro/slx/consensus"
	"repro/slx/hist"
	"repro/slx/mutex"
	"repro/slx/run"
	"repro/slx/tm"
)

// testRegister is a linearizable read/write register: every access is a
// single atomic step.
type testRegister struct{ v hist.Value }

func (r *testRegister) Apply(p *run.Proc, inv run.Invocation) hist.Value {
	var out hist.Value
	switch inv.Op {
	case "read":
		p.Exec("read", func() { out = r.v })
	case "write":
		p.Exec("write", func() { r.v = inv.Arg; out = hist.OK })
	}
	return out
}

// badRegister responds to reads with a value nobody ever wrote.
type badRegister struct{}

func (badRegister) Apply(p *run.Proc, inv run.Invocation) hist.Value {
	var out hist.Value
	switch inv.Op {
	case "read":
		p.Exec("read", func() { out = 99 })
	case "write":
		p.Exec("write", func() { out = hist.OK })
	}
	return out
}

// brokenLock grants every acquire immediately: mutual exclusion fails as
// soon as two processes hold it.
type brokenLock struct{}

func (brokenLock) Apply(p *run.Proc, inv run.Invocation) hist.Value {
	var out hist.Value
	p.Exec(inv.Op, func() {
		if inv.Op == mutex.OpAcquire {
			out = mutex.Locked
		} else {
			out = mutex.Unlocked
		}
	})
	return out
}

// brokenTM responds to reads with an invented value and commits
// everything: opacity (and everything stronger) fails.
type brokenTM struct{}

func (brokenTM) Apply(p *run.Proc, inv run.Invocation) hist.Value {
	var out hist.Value
	p.Exec(inv.Op, func() {
		switch inv.Op {
		case hist.TMRead:
			out = 7
		case hist.TMTryC:
			out = hist.Commit
		default:
			out = hist.OK
		}
	})
	return out
}

// registerEnv has both processes write their id then read.
func registerEnv() run.Environment {
	return run.Script(map[int][]run.Invocation{
		1: {{Op: "write", Arg: 1}, {Op: "read"}},
		2: {{Op: "write", Arg: 2}, {Op: "read"}},
	})
}

func txnRW() map[int]tm.Txn {
	return map[int]tm.Txn{
		1: {Accesses: []tm.Access{{Var: "x"}, {Write: true, Var: "x", Val: 1}}},
		2: {Accesses: []tm.Access{{Var: "x"}, {Write: true, Var: "x", Val: 2}}},
	}
}

// propCase is one good-run/bad-run pair for a property constructor.
type propCase struct {
	name string
	prop func() slx.Property
	good []slx.Option
	bad  []slx.Option
}

func obj(f func() run.Object) slx.Option { return slx.WithObject(f) }

func env(f func() run.Environment) slx.Option { return slx.WithEnv(f) }

func sched(f func() run.Scheduler) slx.Option { return slx.WithScheduler(f) }

func proposeForever01() slx.Option {
	return env(func() run.Environment {
		return consensus.ProposeForever(map[int]hist.Value{1: 0, 2: 1})
	})
}

func proposeOnce(vals map[int]hist.Value) slx.Option {
	return env(func() run.Environment { return consensus.ProposeOnce(vals) })
}

func cases() []propCase {
	commitAdopt := obj(func() run.Object { return consensus.NewCommitAdoptOF(2) })
	casConsensus := obj(func() run.Object { return consensus.NewCASBased() })
	trivial := obj(func() run.Object { return consensus.Trivial{} })
	solo1 := sched(func() run.Scheduler { return run.Solo(1) })
	return []propCase{
		{
			name: "agreement+validity",
			prop: check.AgreementValidity,
			good: []slx.Option{commitAdopt, proposeForever01(), slx.WithMaxSteps(200)},
			bad: []slx.Option{
				obj(func() run.Object { return consensus.NewDecideOwn(2) }),
				proposeOnce(map[int]hist.Value{1: 0, 2: 1}), slx.WithMaxSteps(60),
			},
		},
		{
			name: "k-set-agreement",
			prop: func() slx.Property { return check.KSetAgreement(2) },
			good: []slx.Option{
				obj(func() run.Object { return consensus.NewDecideOwn(2) }),
				proposeOnce(map[int]hist.Value{1: 0, 2: 1}), slx.WithMaxSteps(60),
			},
			bad: []slx.Option{
				obj(func() run.Object { return consensus.NewDecideOwn(3) }), slx.WithProcs(3),
				proposeOnce(map[int]hist.Value{1: 0, 2: 1, 3: 2}), slx.WithMaxSteps(90),
			},
		},
		{
			name: "mutual-exclusion",
			prop: check.MutualExclusion,
			good: []slx.Option{
				obj(func() run.Object { return mutex.NewPeterson() }),
				env(func() run.Environment { return mutex.AcquireReleaseLoop(2) }),
				slx.WithMaxSteps(200),
			},
			bad: []slx.Option{
				obj(func() run.Object { return brokenLock{} }),
				env(func() run.Environment { return mutex.AcquireReleaseLoop(2) }),
				slx.WithMaxSteps(60),
			},
		},
		{
			name: "linearizability(register)",
			prop: func() slx.Property { return check.Linearizability(check.RegisterSpec{Initial: 0}) },
			good: []slx.Option{
				obj(func() run.Object { return &testRegister{v: 0} }),
				env(registerEnv), slx.WithMaxSteps(60),
			},
			bad: []slx.Option{
				obj(func() run.Object { return badRegister{} }),
				env(registerEnv), slx.WithMaxSteps(60),
			},
		},
		{
			name: "opacity",
			prop: check.Opacity,
			good: []slx.Option{
				obj(func() run.Object { return tm.NewGlobalCAS(2) }),
				env(func() run.Environment { return tm.TxnLoop(txnRW()) }), slx.WithMaxSteps(200),
			},
			bad: []slx.Option{
				obj(func() run.Object { return brokenTM{} }),
				env(func() run.Environment { return tm.TxnLoop(txnRW()) }), slx.WithMaxSteps(80),
			},
		},
		{
			name: "strict-serializability",
			prop: check.StrictSerializability,
			good: []slx.Option{
				obj(func() run.Object { return tm.NewGlobalCAS(2) }),
				env(func() run.Environment { return tm.TxnLoop(txnRW()) }), slx.WithMaxSteps(200),
			},
			bad: []slx.Option{
				obj(func() run.Object { return brokenTM{} }),
				env(func() run.Environment { return tm.TxnLoop(txnRW()) }), slx.WithMaxSteps(80),
			},
		},
		{
			name: "property-S",
			prop: check.PropertyS,
			good: []slx.Option{
				obj(func() run.Object { return tm.NewI12(2) }),
				env(func() run.Environment { return tm.TxnLoop(txnRW()) }), slx.WithMaxSteps(200),
			},
			bad: []slx.Option{
				obj(func() run.Object { return brokenTM{} }),
				env(func() run.Environment { return tm.TxnLoop(txnRW()) }), slx.WithMaxSteps(80),
			},
		},
		{
			name: "wait-freedom",
			prop: func() slx.Property { return check.WaitFreedom(nil) },
			good: []slx.Option{casConsensus, proposeForever01(), slx.WithMaxSteps(200)},
			bad:  []slx.Option{commitAdopt, proposeForever01(), slx.WithMaxSteps(400)},
		},
		{
			name: "local-progress",
			prop: check.LocalProgress,
			good: []slx.Option{
				obj(func() run.Object { return tm.NewGlobalCAS(1) }), slx.WithProcs(1),
				env(func() run.Environment { return tm.TxnLoop(txnRW()) }), slx.WithMaxSteps(200),
			},
			bad: []slx.Option{
				obj(func() run.Object { return tm.Aborter{} }),
				env(func() run.Environment { return tm.TxnLoop(txnRW()) }), slx.WithMaxSteps(200),
			},
		},
		{
			name: "l-lock-freedom",
			prop: func() slx.Property { return check.LLockFreedom(1, mutex.Good()) },
			good: []slx.Option{
				obj(func() run.Object { return mutex.NewTASLock() }),
				env(func() run.Environment { return mutex.AcquireReleaseLoop(2) }),
				slx.WithMaxSteps(200),
			},
			bad: []slx.Option{trivial, proposeForever01(), slx.WithMaxSteps(200)},
		},
		{
			name: "k-obstruction-freedom",
			prop: func() slx.Property { return check.KObstructionFreedom(2, nil) },
			good: []slx.Option{casConsensus, proposeForever01(), slx.WithMaxSteps(200)},
			bad:  []slx.Option{commitAdopt, proposeForever01(), slx.WithMaxSteps(400)},
		},
		{
			name: "(1,2)-freedom",
			prop: func() slx.Property { return check.LK(1, 2, nil) },
			good: []slx.Option{casConsensus, proposeForever01(), slx.WithMaxSteps(200)},
			bad:  []slx.Option{commitAdopt, proposeForever01(), slx.WithMaxSteps(400)},
		},
		{
			name: "(1,2)-freedom-literal",
			prop: func() slx.Property { return check.LKLiteral(1, 2, nil) },
			good: []slx.Option{casConsensus, proposeForever01(), slx.WithMaxSteps(200)},
			bad:  []slx.Option{commitAdopt, proposeForever01(), slx.WithMaxSteps(400)},
		},
		{
			name: "S-freedom",
			prop: func() slx.Property { return check.SFreedom([]int{1}, nil) },
			good: []slx.Option{commitAdopt, proposeForever01(), solo1, slx.WithMaxSteps(200)},
			bad:  []slx.Option{trivial, proposeForever01(), solo1, slx.WithMaxSteps(200)},
		},
		{
			name: "(n,x)-liveness",
			prop: func() slx.Property { return check.NXLiveness([]int{1}, nil) },
			good: []slx.Option{casConsensus, proposeForever01(), slx.WithMaxSteps(200)},
			bad:  []slx.Option{trivial, proposeForever01(), slx.WithMaxSteps(200)},
		},
		{
			name: "fair",
			prop: check.Fair,
			good: []slx.Option{commitAdopt, proposeForever01(), slx.WithMaxSteps(200)},
			bad:  []slx.Option{commitAdopt, proposeForever01(), solo1, slx.WithMaxSteps(200)},
		},
	}
}

func TestPropertiesGoodAndBad(t *testing.T) {
	for _, tc := range cases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// Known-good run: the property holds.
			good, err := slx.New(tc.good...).Check(tc.prop())
			if err != nil {
				t.Fatalf("good run: %v", err)
			}
			if !good.OK() {
				t.Fatalf("good run must pass, got %s", good.Failures()[0])
			}

			// Known-bad run: the property fails with a witness…
			bad := slx.New(tc.bad...)
			rep, err := bad.Check(tc.prop())
			if err != nil {
				t.Fatalf("bad run: %v", err)
			}
			if rep.OK() {
				t.Fatalf("bad run must fail %s (history %s)", tc.name, rep.Execution.H)
			}
			v := rep.Failures()[0]
			if v.Reason == "" {
				t.Error("failing verdict must carry a reason")
			}
			if v.Witness == nil {
				t.Fatal("failing verdict must carry a witness schedule")
			}

			// …and the witness replays to the same violation.
			replayed, err := bad.Replay(v.Witness, tc.prop())
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if replayed.OK() {
				t.Errorf("witness %v must replay to the violation", v.Witness)
			}
			if !replayed.Execution.H.Equal(rep.Execution.H) {
				t.Errorf("replayed history %s differs from original %s", replayed.Execution.H, rep.Execution.H)
			}
		})
	}
}

// TestExploreUsesMonitors is the oracle parity gate of the one
// property-evaluation path: for every safety constructor, Explore on the
// property's native monitor must agree exactly — verdict, witness,
// Prefixes and EventScans — with Explore on slx.SafetyFunc over the same
// property's batch checker, which slx.BatchMonitor re-judges on every
// event. Safety properties are prefix-closed, so both judges reject the
// same event of the same path, or none. The two linearizability
// constructors' batch checks replay the history through the same monitor
// (safety.LinMonitor is their one decision procedure), so for those
// cases the gate checks the SafetyFunc/BatchMonitor plumbing against the
// native path, not one procedure against another; the monitor's
// independent oracle is internal/safety's Wing–Gong search test.
func TestExploreUsesMonitors(t *testing.T) {
	durable, ok := service.LookupTarget("durablequeue")
	if !ok {
		t.Fatal("durablequeue target not registered")
	}
	safetyProps := []struct {
		name string
		prop func() slx.Property
		opts []slx.Option
	}{
		{
			name: "agreement+validity",
			prop: check.AgreementValidity,
			opts: []slx.Option{
				obj(func() run.Object { return consensus.NewCommitAdoptOF(2) }),
				proposeOnce(map[int]hist.Value{1: 0, 2: 1}),
				slx.WithDepth(8),
			},
		},
		{
			name: "k-set-agreement",
			prop: func() slx.Property { return check.KSetAgreement(2) },
			opts: []slx.Option{
				obj(func() run.Object { return consensus.NewDecideOwn(3) }), slx.WithProcs(3),
				proposeOnce(map[int]hist.Value{1: 0, 2: 1, 3: 2}),
				slx.WithDepth(7),
			},
		},
		{
			name: "mutual-exclusion",
			prop: check.MutualExclusion,
			opts: []slx.Option{
				obj(func() run.Object { return brokenLock{} }),
				env(func() run.Environment { return mutex.AcquireReleaseLoop(2) }),
				slx.WithDepth(6),
			},
		},
		{
			name: "linearizability",
			prop: func() slx.Property { return check.Linearizability(check.RegisterSpec{Initial: 0}) },
			opts: []slx.Option{
				obj(func() run.Object { return &testRegister{v: 0} }),
				env(registerEnv),
				slx.WithDepth(6),
			},
		},
		{
			name: "strict-linearizability/register",
			prop: func() slx.Property { return check.StrictLinearizability(check.RegisterSpec{Initial: 0}) },
			opts: []slx.Option{
				obj(func() run.Object { return &testRegister{v: 0} }),
				env(registerEnv),
				slx.WithDepth(6), slx.WithCrashes(1), slx.WithRecoveries(1),
			},
		},
		{
			name: "strict-linearizability/durablequeue",
			prop: durable.Property,
			opts: append(durable.Options(), slx.WithDepth(12), slx.WithCrashes(1), slx.WithRecoveries(1)),
		},
		{
			name: "opacity",
			prop: check.Opacity,
			opts: []slx.Option{
				obj(func() run.Object { return tm.NewGlobalCAS(2) }),
				env(func() run.Environment { return tm.TxnLoop(txnRW()) }),
				slx.WithDepth(7),
			},
		},
		{
			name: "strict-serializability",
			prop: check.StrictSerializability,
			opts: []slx.Option{
				obj(func() run.Object { return brokenTM{} }),
				env(func() run.Environment { return tm.TxnLoop(txnRW()) }),
				slx.WithDepth(9),
			},
		},
		{
			name: "property-S",
			prop: check.PropertyS,
			opts: []slx.Option{
				obj(func() run.Object { return tm.NewI12(2) }),
				env(func() run.Environment { return tm.TxnLoop(txnRW()) }),
				slx.WithDepth(7),
			},
		},
	}
	for _, tc := range safetyProps {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			mon, err := slx.New(tc.opts...).Explore(tc.prop())
			if err != nil {
				t.Fatalf("monitor explore: %v", err)
			}
			p := tc.prop()
			oracle := slx.SafetyFunc(p.Name(), func(h hist.History) bool { return p.Check(&slx.Execution{H: h}).Holds })
			batch, err := slx.New(tc.opts...).Explore(oracle)
			if err != nil {
				t.Fatalf("batch-oracle explore: %v", err)
			}
			if mon.OK() != batch.OK() || mon.Prefixes != batch.Prefixes || mon.EventScans != batch.EventScans {
				t.Fatalf("judges disagree: monitor OK=%v prefixes=%d scans=%d, batch oracle OK=%v prefixes=%d scans=%d",
					mon.OK(), mon.Prefixes, mon.EventScans, batch.OK(), batch.Prefixes, batch.EventScans)
			}
			if !reflect.DeepEqual(mon.Witness(), batch.Witness()) {
				t.Fatalf("witnesses differ: monitor %v, batch oracle %v", mon.Witness(), batch.Witness())
			}
			if !mon.OK() && mon.Failures()[0].Property != batch.Failures()[0].Property {
				t.Fatalf("failing properties differ: monitor %q, batch oracle %q",
					mon.Failures()[0].Property, batch.Failures()[0].Property)
			}
			t.Logf("OK=%v prefixes=%d scans=%d witness=%v", mon.OK(), mon.Prefixes, mon.EventScans, mon.Witness())
		})
	}
}

// TestExploreViolationWitnessReplay: a violation found by the monitor
// path carries a non-nil witness and Report.Schedule, and the witness
// replays to the violation.
func TestExploreViolationWitnessReplay(t *testing.T) {
	c := slx.New(
		obj(func() run.Object { return consensus.NewDecideOwn(2) }),
		proposeOnce(map[int]hist.Value{1: 0, 2: 1}),
		slx.WithDepth(8),
	)
	rep, err := c.Explore(check.AgreementValidity())
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if rep.OK() {
		t.Fatal("decide-own must violate agreement")
	}
	if rep.Schedule == nil {
		t.Fatal("Report.Schedule must be non-nil on failure")
	}
	v := rep.Failures()[0]
	if v.Witness == nil {
		t.Fatal("verdict witness must be non-nil on failure")
	}
	replayed, err := c.Replay(v.Witness, check.AgreementValidity())
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if replayed.OK() {
		t.Error("witness must replay to the violation")
	}
}

// TestForkIntoUsedMonitor forks a linearizability monitor, after a
// prefix, into a fork of the same parent that went on through another
// branch — one that failed, one that left other operations pending —
// and steps it beside a fresh fork through the parent's own
// continuation: every Step result, verdict and digest must agree.
func TestForkIntoUsedMonitor(t *testing.T) {
	type forkInto interface{ ForkInto(slx.Monitor) slx.Monitor }
	prefix := hist.History{hist.Invoke(1, "write", 1), hist.Invoke(2, "read", nil)}
	cont := hist.History{
		hist.Response(1, "write", hist.OK), hist.Response(2, "read", 1),
		hist.Invoke(1, "read", nil), hist.Response(1, "read", 1),
	}
	branches := map[string]hist.History{
		"failed":  {hist.Response(2, "read", 5)},
		"pending": {hist.Invoke(3, "write", 2), hist.Response(2, "read", 2), hist.Invoke(2, "write", 3)},
	}
	for _, prop := range []slx.Property{
		check.Linearizability(check.RegisterSpec{Initial: 0}),
		check.StrictLinearizability(check.RegisterSpec{Initial: 0}),
	} {
		for name, alt := range branches {
			root := prop.Spawn()
			for _, e := range prefix {
				root.Step(e)
			}
			used := root.Fork()
			for _, e := range alt {
				used.Step(e)
			}
			fresh := root.Fork()
			if root.(forkInto).ForkInto(used) != used {
				t.Fatalf("%s, %s: ForkInto allocated instead of overwriting its destination", prop.Name(), name)
			}
			for k, e := range cont {
				fok, uok := fresh.Step(e), used.Step(e)
				fd, fdok := fresh.(slx.Digester).StateDigest()
				ud, udok := used.(slx.Digester).StateDigest()
				if fok != uok || fd != ud || fdok != udok || !reflect.DeepEqual(fresh.Verdict(), used.Verdict()) {
					t.Fatalf("%s, %s: at continuation event %d the fresh fork reads %v/%d/%v %+v, the reused destination %v/%d/%v %+v",
						prop.Name(), name, k+1, fok, fd, fdok, fresh.Verdict(), uok, ud, udok, used.Verdict())
				}
			}
		}
	}
}
