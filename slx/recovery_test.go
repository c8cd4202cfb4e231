package slx_test

// Cross-checks of crash–recovery exploration through the public API:
// for recoverable objects — clean and seeded-bug alike — Explore with
// WithRecoveries on the default snapshot strategy must return the
// identical verdict, statistics and witness as Explore forced onto the
// from-root strategy, composed with POR, the state cache and the
// work-stealing scheduler; and the whole tree must be deterministic
// across repeated runs (recovery epochs are part of the fingerprint).
// Run with -race in CI.

import (
	"reflect"
	"testing"

	"repro/internal/queue"
	"repro/internal/service"
	itm "repro/internal/tm"
	"repro/slx"
	"repro/slx/check"
	"repro/slx/hist"
	"repro/slx/run"
	"repro/slx/tm"
)

// recRegister is porRegister plus the Recoverable hooks: no volatile
// state (CrashVolatile is a no-op) and a one-window recovery routine
// that re-reads the register before the process rejoins its workload.
// It is strictly linearizable under any crash/recovery pattern, making
// it the clean recovery parity case.
type recRegister struct{ porRegister }

func (r *recRegister) CrashVolatile() {}

func (r *recRegister) RecoverFrame() run.Frame { return &recRegisterFrame{r: r} }

// recRegisterFrame is the recovery routine: one read window.
type recRegisterFrame struct{ r *recRegister }

// Step implements run.Frame.
func (f *recRegisterFrame) Step(p *run.Proc) (hist.Value, run.StepStatus) {
	p.Access("r", false)
	p.Observe(f.r.v)
	return nil, run.StepDone
}

// Fork implements run.Frame: the frame holds no mutable state.
func (f *recRegisterFrame) Fork() run.Frame { return f }

// recNilRegister exercises the other recovery shape: a Recoverable
// object whose RecoverFrame is nil, so a recovered process re-consults
// its environment immediately, with no routine in between.
type recNilRegister struct{ porRegister }

func (r *recNilRegister) CrashVolatile() {}

func (r *recNilRegister) RecoverFrame() run.Frame { return nil }

// recoveryCases is the object table of the recovery cross-check. The
// violating case is the registered durablequeue service target — the
// roll-forward queue whose duplicate needs crash+recover — so the
// parity gate runs against exactly what slxd serves.
func recoveryCases() map[string]struct {
	opts  []slx.Option
	props []slx.Property
} {
	durable, ok := service.LookupTarget("durablequeue")
	if !ok {
		panic("durablequeue target not registered")
	}
	return map[string]struct {
		opts  []slx.Option
		props []slx.Property
	}{
		"rec-register/routine": {
			opts: []slx.Option{
				slx.WithObject(func() run.Object { return &recRegister{porRegister{v: 0}} }),
				slx.WithEnv(regEnv(2)),
				slx.WithProcs(2),
				slx.WithDepth(6),
				slx.WithCrashes(1),
				slx.WithRecoveries(1),
			},
			props: []slx.Property{check.StrictLinearizability(check.RegisterSpec{Initial: 0})},
		},
		"rec-register/nil-frame": {
			opts: []slx.Option{
				slx.WithObject(func() run.Object { return &recNilRegister{porRegister{v: 0}} }),
				slx.WithEnv(regEnv(2)),
				slx.WithProcs(2),
				slx.WithDepth(6),
				slx.WithCrashes(1),
				slx.WithRecoveries(1),
			},
			props: []slx.Property{check.StrictLinearizability(check.RegisterSpec{Initial: 0})},
		},
		"non-recoverable/durable": {
			// No Recoverable hooks at all: every object cell is durable and
			// recovery is a bare re-spawn.
			opts: []slx.Option{
				slx.WithObject(func() run.Object { return &porRegister{v: 0} }),
				slx.WithEnv(regEnv(2)),
				slx.WithProcs(2),
				slx.WithDepth(6),
				slx.WithCrashes(1),
				slx.WithRecoveries(1),
			},
			props: []slx.Property{check.StrictLinearizability(check.RegisterSpec{Initial: 0})},
		},
		"persistent-queue/clean": {
			opts: []slx.Option{
				slx.WithObject(func() run.Object { return queue.NewPersistent(2) }),
				slx.WithEnv(queueEnv),
				slx.WithProcs(2),
				slx.WithDepth(10),
				slx.WithCrashes(1),
				slx.WithRecoveries(1),
			},
			props: []slx.Property{check.StrictLinearizability(check.QueueSpec{})},
		},
		"durable-tm/opacity": {
			opts: []slx.Option{
				slx.WithObject(func() run.Object { return itm.NewDurableTM(2) }),
				slx.WithEnv(func() run.Environment {
					return tm.TxnLoop(map[int]tm.Txn{
						1: {Accesses: []tm.Access{{Write: true, Var: "x", Val: 1}}},
						2: {Accesses: []tm.Access{{Var: "x"}}},
					})
				}),
				slx.WithProcs(2),
				slx.WithDepth(8),
				slx.WithCrashes(1),
				slx.WithRecoveries(1),
			},
			props: []slx.Property{check.Opacity()},
		},
		"durablequeue/violation": {
			opts: append(durable.Options(),
				slx.WithDepth(12),
				slx.WithCrashes(1),
				slx.WithRecoveries(1),
			),
			props: []slx.Property{durable.Property()},
		},
	}
}

// TestRecoveryVerdictParity is the recovery twin of
// TestIncrementalVerdictParity: identical verdicts, tree statistics and
// (at one worker) witness schedules between the incremental and replay
// engines, for every recovery case under every composition, and a
// violating witness that replays — crash and recover decisions
// included — to the same verdict.
func TestRecoveryVerdictParity(t *testing.T) {
	for name, tc := range recoveryCases() {
		tc := tc
		for _, combo := range incrementalCombos() {
			combo := combo
			t.Run(name+"/"+combo.name, func(t *testing.T) {
				base := append(tc.opts[:len(tc.opts):len(tc.opts)], combo.opts...)
				base = base[:len(base):len(base)]
				inc, err := slx.New(base...).Explore(tc.props...)
				if err != nil {
					t.Fatalf("incremental explore: %v", err)
				}
				rep, err := slx.New(append(base, slx.WithReplayExecution())...).Explore(tc.props...)
				if err != nil {
					t.Fatalf("replay explore: %v", err)
				}
				if inc.OK() != rep.OK() {
					t.Fatalf("verdicts differ: incremental OK=%v, replay OK=%v\nincremental: %s\nreplay: %s",
						inc.OK(), rep.OK(), inc, rep)
				}
				if inc.Workers == 1 {
					if inc.Prefixes != rep.Prefixes || inc.Pruned != rep.Pruned || inc.CacheHits != rep.CacheHits {
						t.Errorf("trees differ: incremental %d prefixes/%d pruned/%d hits, replay %d/%d/%d",
							inc.Prefixes, inc.Pruned, inc.CacheHits, rep.Prefixes, rep.Pruned, rep.CacheHits)
					}
					if !reflect.DeepEqual(inc.Witness(), rep.Witness()) {
						t.Errorf("witnesses differ: incremental %v, replay %v", inc.Witness(), rep.Witness())
					}
				}
				if !inc.OK() {
					iv := inc.Failures()[0]
					if iv.Witness == nil {
						t.Fatal("incremental failure carries no witness")
					}
					replayed, err := slx.New(tc.opts[:len(tc.opts):len(tc.opts)]...).Replay(iv.Witness, tc.props...)
					if err != nil {
						t.Fatalf("witness replay: %v", err)
					}
					if replayed.OK() {
						t.Errorf("incremental witness %v replayed clean", iv.Witness)
					}
				}
			})
		}
	}
}

// TestRecoveryNeedsBothBudgets pins the acceptance claim of the
// durablequeue scenario in both directions: the violation is reachable
// with crashes+recoveries and provably absent — full exhaustive
// exploration, same depth — under crashes alone or no failures at all.
func TestRecoveryNeedsBothBudgets(t *testing.T) {
	durable, _ := service.LookupTarget("durablequeue")
	explore := func(extra ...slx.Option) *slx.Report {
		t.Helper()
		opts := append(durable.Options(), slx.WithDepth(12))
		rep, err := slx.New(append(opts, extra...)...).Explore(durable.Property())
		if err != nil {
			t.Fatalf("explore: %v", err)
		}
		return rep
	}
	if rep := explore(); !rep.OK() {
		t.Fatalf("crash-free exploration must be clean: %s", rep.Failures()[0].Reason)
	}
	if rep := explore(slx.WithCrashes(1)); !rep.OK() {
		t.Fatalf("crash-only exploration must be clean: %s", rep.Failures()[0].Reason)
	}
	if rep := explore(slx.WithCrashes(1), slx.WithRecoveries(1)); rep.OK() {
		t.Fatal("crash+recover exploration must find the roll-forward duplicate")
	}
}

// TestRecoveryTreeDeterministic pins fingerprint composition: recovery
// epochs and the crash set are part of the state digest, so repeated
// cached explorations of the same recovery scenario enumerate the
// identical tree — same prefixes, distinct states, cache hits and
// witness, run after run.
func TestRecoveryTreeDeterministic(t *testing.T) {
	for name, tc := range recoveryCases() {
		tc := tc
		t.Run(name, func(t *testing.T) {
			mk := func() *slx.Report {
				rep, err := slx.New(append(tc.opts[:len(tc.opts):len(tc.opts)],
					slx.WithPOR(), slx.WithStateCache())...).Explore(tc.props...)
				if err != nil {
					t.Fatalf("explore: %v", err)
				}
				return rep
			}
			a, b := mk(), mk()
			if a.Prefixes != b.Prefixes || a.DistinctStates != b.DistinctStates || a.CacheHits != b.CacheHits || a.Pruned != b.Pruned {
				t.Errorf("runs differ: %d/%d/%d/%d vs %d/%d/%d/%d (prefixes/states/hits/pruned)",
					a.Prefixes, a.DistinctStates, a.CacheHits, a.Pruned,
					b.Prefixes, b.DistinctStates, b.CacheHits, b.Pruned)
			}
			if !reflect.DeepEqual(a.Witness(), b.Witness()) {
				t.Errorf("witnesses differ across runs: %v vs %v", a.Witness(), b.Witness())
			}
		})
	}
}
