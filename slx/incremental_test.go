package slx_test

// Cross-checks of the session's two restore strategies through the
// public API: for every example object — clean and seeded-bug alike —
// Explore on the default snapshot strategy must return the identical
// verdict, statistics and witness as Explore forced onto the from-root
// strategy over the blocking Apply (WithReplayExecution), composed with
// POR, the state cache and the work-stealing scheduler. This is the
// acceptance gate of the session engine's soundness story (see
// DESIGN.md "Incremental execution"): both strategies enumerate the
// identical tree, so every divergence is an engine bug, never a
// property change. Run with -race in CI.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/slx"
	"repro/slx/check"
	"repro/slx/consensus"
	"repro/slx/hist"
	"repro/slx/run"
)

// incrementalCombos are the feature compositions each example object is
// cross-checked under. Workers > 1 is checked on a single composition
// (witnesses there are compared by replayability, not identity).
func incrementalCombos() []struct {
	name string
	opts []slx.Option
} {
	return []struct {
		name string
		opts []slx.Option
	}{
		{"plain", nil},
		{"por", []slx.Option{slx.WithPOR()}},
		{"cache", []slx.Option{slx.WithStateCache()}},
		{"por+cache", []slx.Option{slx.WithPOR(), slx.WithStateCache()}},
		{"por+cache+workers4", []slx.Option{slx.WithPOR(), slx.WithStateCache(), slx.WithWorkers(4)}},
	}
}

// TestIncrementalVerdictParity is the public-API acceptance gate of the
// incremental engine: identical verdicts, prefix counts, pruning and
// cache statistics, and (at one worker) identical witness schedules,
// against the replay engine, for every example object under every
// composition.
func TestIncrementalVerdictParity(t *testing.T) {
	for name, tc := range porCases() {
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
				workers := inc.Workers > 1
				if !workers {
					// Sequential exploration is fully deterministic: both
					// engines must enumerate the identical tree.
					if inc.Prefixes != rep.Prefixes || inc.Pruned != rep.Pruned || inc.CacheHits != rep.CacheHits {
						t.Errorf("trees differ: incremental %d prefixes/%d pruned/%d hits, replay %d/%d/%d",
							inc.Prefixes, inc.Pruned, inc.CacheHits, rep.Prefixes, rep.Pruned, rep.CacheHits)
					}
					if inc.EventScans != rep.EventScans {
						t.Errorf("event scans differ: incremental %d, replay %d", inc.EventScans, rep.EventScans)
					}
					if !reflect.DeepEqual(inc.Witness(), rep.Witness()) {
						t.Errorf("witnesses differ: incremental %v, replay %v", inc.Witness(), rep.Witness())
					}
				}
				if !inc.OK() {
					iv, rv := inc.Failures()[0], rep.Failures()[0]
					if iv.Property != rv.Property {
						t.Errorf("different properties failed: incremental %q, replay %q", iv.Property, rv.Property)
					}
					if iv.Witness == nil {
						t.Error("incremental failure carries no witness")
					}
					// The witness must reproduce the violation on a plain
					// replay regardless of which engine (or worker timing)
					// found it.
					replayed, err := slx.New(tc.opts[:len(tc.opts):len(tc.opts)]...).Replay(iv.Witness, tc.props...)
					if err != nil {
						t.Fatalf("witness replay: %v", err)
					}
					if replayed.OK() {
						t.Errorf("incremental witness %v replayed clean", iv.Witness)
					}
				}
				// Every example object carries the snapshot hook, so the
				// incremental engine must actually engage: strictly fewer
				// sim steps than the from-root strategy whenever that one
				// backtracked (rebuilt) at all.
				if !workers && rep.Resims > 0 && inc.SimSteps >= rep.SimSteps {
					t.Errorf("incremental engine did not reduce sim steps: %d vs replay %d", inc.SimSteps, rep.SimSteps)
				}
			})
		}
	}
}

// noSnapRegister is porRegister without the snapshot hook: exploration
// must take the from-root strategy transparently.
type noSnapRegister struct{ v hist.Value }

func (r *noSnapRegister) Apply(p *run.Proc, inv run.Invocation) hist.Value {
	var out hist.Value
	switch inv.Op {
	case "read":
		p.Exec("read", func() { p.Access("r", false); out = r.v; p.Observe(out) })
	case "write":
		p.Exec("write", func() { p.Access("r", true); r.v = inv.Arg; out = hist.OK })
	}
	return out
}

func (r *noSnapRegister) Footprints() bool { return true }

// TestIncrementalFallbackTransparent pins the fallback contract: an
// object without run.Snapshottable explores by from-root rebuilds with
// or without WithReplayExecution — identical trees, identical step
// counts — so soundness never depends on the hook.
func TestIncrementalFallbackTransparent(t *testing.T) {
	if run.CanSnapshot(&noSnapRegister{}) {
		t.Fatal("noSnapRegister must not report snapshot support")
	}
	mk := func(extra ...slx.Option) *slx.Report {
		opts := []slx.Option{
			slx.WithObject(func() run.Object { return &noSnapRegister{v: 0} }),
			slx.WithEnv(regEnv(2)),
			slx.WithProcs(2),
			slx.WithDepth(6),
		}
		rep, err := slx.New(append(opts, extra...)...).Explore(check.Linearizability(check.RegisterSpec{Initial: 0}))
		if err != nil {
			t.Fatalf("explore: %v", err)
		}
		return rep
	}
	def := mk()
	forced := mk(slx.WithReplayExecution())
	if def.Prefixes != forced.Prefixes || def.SimSteps != forced.SimSteps || def.Resims != forced.Resims {
		t.Errorf("fallback differs from forced replay: %d/%d/%d vs %d/%d/%d",
			def.Prefixes, def.SimSteps, def.Resims, forced.Prefixes, forced.SimSteps, forced.Resims)
	}
	if !def.OK() || !forced.OK() {
		t.Errorf("register must be linearizable (default OK=%v, forced OK=%v)", def.OK(), forced.OK())
	}
	if def.SimSteps <= def.Prefixes {
		t.Errorf("from-root rebuilds should show re-executed steps (%d) above prefixes (%d)", def.SimSteps, def.Prefixes)
	}
}

// TestEnvironmentFuncExploresOnSnapshots pins that the object alone
// picks the restore strategy: commit-adopt under its stock ProposeOnce
// environment and under the same environment wrapped in a bare
// run.EnvironmentFunc explores the identical tree on snapshots, one
// simulator step per prefix and nothing re-simulated.
func TestEnvironmentFuncExploresOnSnapshots(t *testing.T) {
	stock := func() run.Environment { return consensus.ProposeOnce(map[int]hist.Value{1: 0, 2: 1}) }
	for _, tc := range []struct {
		name   string
		newEnv func() run.Environment
	}{
		{"stock", stock},
		{"EnvironmentFunc", func() run.Environment { return run.EnvironmentFunc(stock().Next) }},
	} {
		rep, err := slx.New(
			slx.WithObject(func() run.Object { return consensus.NewCommitAdoptOF(2) }),
			slx.WithEnv(tc.newEnv),
			slx.WithProcs(2),
			slx.WithDepth(10),
		).Explore(check.AgreementValidity())
		if err != nil {
			t.Fatalf("%s: explore: %v", tc.name, err)
		}
		if !rep.OK() || rep.Prefixes != 2045 || rep.SimSteps != 2044 || rep.Resims != 0 {
			t.Errorf("%s: OK=%v, %d prefixes, %d sim steps, %d resims; want OK, 2045, 2044, 0",
				tc.name, rep.OK(), rep.Prefixes, rep.SimSteps, rep.Resims)
		}
	}
}

// viewEnv issues invocations that depend on the observed view: each
// process writes the current history length (different in every
// interleaving), then reads, then stops. Both strategies must consult
// the environment inside the same step window with the same view — a
// session restore that replayed the environment against a stale or
// rebuilt view would pick different invocations and change the
// explored tree.
type viewEnv struct{}

func (viewEnv) Next(proc int, v *run.View) (run.Invocation, bool) {
	switch v.Invoked[proc] {
	case 0:
		return run.Invocation{Op: "write", Arg: 100*proc + len(v.H)}, true
	case 1:
		return run.Invocation{Op: "read"}, true
	}
	return run.Invocation{}, false
}

func viewDependentEnv() run.Environment { return viewEnv{} }

// TestContinuationParityViewEnvAndCrashes pins the continuation engine
// against the replay oracle on the two execution features most easily
// broken by snapshot restore: view-dependent environments (the chosen
// invocation depends on the history at consult time) and crash
// branching (restores must resurrect pre-crash continuation frames).
// Run with -race in CI.
func TestContinuationParityViewEnvAndCrashes(t *testing.T) {
	base := []slx.Option{
		slx.WithObject(func() run.Object { return &porRegister{v: 0} }),
		slx.WithEnv(viewDependentEnv),
		slx.WithProcs(3),
		slx.WithDepth(6),
		slx.WithCrashes(1),
	}
	props := []slx.Property{check.Linearizability(check.RegisterSpec{Initial: 0})}
	inc, err := slx.New(base...).Explore(props...)
	if err != nil {
		t.Fatalf("continuation explore: %v", err)
	}
	rep, err := slx.New(append(base[:len(base):len(base)], slx.WithReplayExecution())...).Explore(props...)
	if err != nil {
		t.Fatalf("replay explore: %v", err)
	}
	if inc.OK() != rep.OK() {
		t.Fatalf("verdicts differ: continuation OK=%v, replay OK=%v", inc.OK(), rep.OK())
	}
	if inc.Prefixes != rep.Prefixes || inc.EventScans != rep.EventScans {
		t.Errorf("trees differ: continuation %d prefixes/%d scans, replay %d/%d",
			inc.Prefixes, inc.EventScans, rep.Prefixes, rep.EventScans)
	}
	if !reflect.DeepEqual(inc.Witness(), rep.Witness()) {
		t.Errorf("witnesses differ: continuation %v, replay %v", inc.Witness(), rep.Witness())
	}
	if inc.SimSteps >= rep.SimSteps {
		t.Errorf("continuation engine did not reduce sim steps: %d vs replay %d", inc.SimSteps, rep.SimSteps)
	}
}

// TestExplorePoolReuseParallelStress hammers the engine's recycling
// paths — pooled marks, recycled node infos, monitor sets forked into
// per-depth slots — by running violating and clean explorations
// concurrently, with work-stealing workers inside each exploration.
// Any cross-branch or cross-exploration state bleed shows up as a
// flipped verdict (or a -race report in CI, which runs this with
// -race).
func TestExplorePoolReuseParallelStress(t *testing.T) {
	cases := []string{"racy-lock/violation", "lossy-register/violation", "register/linearizability", "commit-adopt/crashes+workers"}
	type want struct {
		name string
		ok   bool
	}
	wants := make([]want, 0, len(cases))
	for _, name := range cases {
		tc := porCases()[name]
		rep, err := slx.New(tc.opts[:len(tc.opts):len(tc.opts)]...).Explore(tc.props...)
		if err != nil {
			t.Fatalf("%s: sequential explore: %v", name, err)
		}
		wants = append(wants, want{name: name, ok: rep.OK()})
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(cases)*8)
	for round := 0; round < 8; round++ {
		for _, w := range wants {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				tc := porCases()[w.name]
				rep, err := slx.New(append(tc.opts[:len(tc.opts):len(tc.opts)],
					slx.WithPOR(), slx.WithStateCache(), slx.WithWorkers(4))...).Explore(tc.props...)
				if err != nil {
					errs <- fmt.Errorf("%s: %v", w.name, err)
					return
				}
				if rep.OK() != w.ok {
					errs <- fmt.Errorf("%s: verdict flipped under pooled parallel reuse: got OK=%v, want %v", w.name, rep.OK(), w.ok)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
