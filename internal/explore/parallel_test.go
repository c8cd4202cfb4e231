package explore

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/base"
	"repro/internal/consensus"
	"repro/internal/history"
	"repro/internal/safety"
	"repro/internal/sim"
)

// brokenCfg explores the seeded agreement violation: many subtrees
// contain violations, so a parallel exploration that reported whichever
// worker finished first would return a different witness run to run.
func brokenCfg(workers int) Config {
	prop := safety.AgreementValidity{}
	return Config{
		Procs: 2,
		NewObject: func() sim.Object {
			return &brokenConsensus{r: base.NewRegister(new(base.Mem), "r", nil)}
		},
		NewEnv: func() sim.Environment {
			return consensus.ProposeOnce(map[int]history.Value{1: 0, 2: 1})
		},
		Depth:       6,
		Workers:     workers,
		NewMonitors: checkSafety("agreement+validity", prop.Holds),
	}
}

// TestParallelWitnessDeterministic checks that a multi-violation object
// yields the identical witness at Workers=1 and Workers=8: the parallel
// path must report the failure of the lexicographically least root
// decision — the one sequential DFS reaches first — not whichever
// worker's failure arrives first.
func TestParallelWitnessDeterministic(t *testing.T) {
	seqSt, seqErr := Run(brokenCfg(1))
	if seqErr == nil {
		t.Fatal("sequential exploration must find the violation")
	}
	for i := 0; i < 20; i++ {
		parSt, parErr := Run(brokenCfg(8))
		if parErr == nil {
			t.Fatal("parallel exploration must find the violation")
		}
		if !reflect.DeepEqual(parSt.Witness, seqSt.Witness) {
			t.Fatalf("run %d: parallel witness %v != sequential witness %v",
				i, parSt.Witness, seqSt.Witness)
		}
		if parErr.Error() != seqErr.Error() {
			t.Fatalf("run %d: parallel error %q != sequential error %q", i, parErr, seqErr)
		}
	}
}

// TestCrashBranchingOnlyReadyProcs pins the crash-branch fix: crash
// children are generated only for processes that can still take steps.
// One process, one two-step operation, depth 4, one crash budget: the
// tree is exactly {[], [1], [c1], [1 1], [1 c1]} — after the operation
// completes the process is idle and no crash-only subtrees (which would
// duplicate their siblings modulo the crash event) are enumerated.
func TestCrashBranchingOnlyReadyProcs(t *testing.T) {
	cfg := Config{
		Procs: 1,
		NewObject: func() sim.Object {
			return sim.ObjectFunc(func(p *sim.Proc, inv sim.Invocation) history.Value {
				p.Exec("work", func() {})
				return history.OK
			})
		},
		NewEnv: func() sim.Environment {
			return sim.OneShot(map[int]sim.Invocation{1: {Op: "op"}})
		},
		Depth:       4,
		Crashes:     1,
		NewMonitors: checkSafety("true", func(history.History) bool { return true }),
	}
	st, err := Run(cfg)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if st.Prefixes != 5 {
		t.Errorf("explored %d prefixes, want exactly 5 (no crash branches for idle processes)", st.Prefixes)
	}
}

// TestCrashParitySequentialParallel checks the two paths enumerate the
// identical crash-injected tree: same prefixes, same steps, same
// verdict. (The parallel path previously built crash roots for every
// process 1..n without consulting the captured ready set.)
func TestCrashParitySequentialParallel(t *testing.T) {
	prop := safety.AgreementValidity{}
	mk := func(workers int) Config {
		return Config{
			Procs:     2,
			NewObject: func() sim.Object { return consensus.NewCommitAdoptOF(2) },
			NewEnv: func() sim.Environment {
				return consensus.ProposeOnce(map[int]history.Value{1: 0, 2: 1})
			},
			Depth:       8,
			Crashes:     2,
			Workers:     workers,
			NewMonitors: checkSafety("agreement+validity", prop.Holds),
		}
	}
	seq, err := Run(mk(1))
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	par, err := Run(mk(4))
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if seq.Prefixes != par.Prefixes || seq.Steps != par.Steps {
		t.Errorf("parallel %d prefixes / %d steps != sequential %d prefixes / %d steps",
			par.Prefixes, par.Steps, seq.Prefixes, seq.Steps)
	}
}

// TestRootViolationStatsParity checks the boundary error case both paths
// share: a monitor rejecting the very first event — the earliest
// violation a monitor can report, since the root prefix records none —
// fails on the root's first child, and sequential and parallel
// explorations must report identical statistics (two prefixes, one
// step, one event, a one-decision witness) and the same error. Depth 1
// keeps the root below the split threshold, so the pool runs exactly
// the work sequential DFS does.
func TestRootViolationStatsParity(t *testing.T) {
	mk := func(workers int) Config {
		return Config{
			Procs: 2,
			NewObject: func() sim.Object {
				return &brokenConsensus{r: base.NewRegister(new(base.Mem), "r", nil)}
			},
			NewEnv: func() sim.Environment {
				return consensus.ProposeOnce(map[int]history.Value{1: 0, 2: 1})
			},
			Depth:       1,
			Workers:     workers,
			NewMonitors: func() MonitorSet { return failFirstSet{} },
		}
	}
	seq, seqErr := Run(mk(1))
	par, parErr := Run(mk(4))
	var seqVio, parVio *Violation
	if !errors.As(seqErr, &seqVio) || !errors.As(parErr, &parVio) {
		t.Fatalf("both paths must report a *Violation (seq %v, par %v)", seqErr, parErr)
	}
	if seqErr.Error() != parErr.Error() {
		t.Errorf("errors differ: seq %q, par %q", seqErr, parErr)
	}
	if seq.Prefixes != 2 || par.Prefixes != 2 {
		t.Errorf("first-event failure must count the root and its first child: seq %d, par %d", seq.Prefixes, par.Prefixes)
	}
	want := []sim.Decision{{Proc: 1}}
	if !reflect.DeepEqual(seq.Witness, want) || !reflect.DeepEqual(par.Witness, want) {
		t.Errorf("witnesses must be the one decision %v on both paths: seq %v, par %v", want, seq.Witness, par.Witness)
	}
	if seq.Steps != 1 || par.Steps != 1 || seq.Events != 1 || par.Events != 1 {
		t.Errorf("steps/events differ from 1/1: seq %d/%d, par %d/%d", seq.Steps, seq.Events, par.Steps, par.Events)
	}
}

// TestReplayFailureStats pins the stats contract of a failed task
// seed, shared by the sequential entry point and the parallel workers
// (both run the same runTask function): the failing prefix is not
// counted, its executed steps are (the seed replay's as re-simulation),
// no witness is fabricated, and the error names the replay.
func TestReplayFailureStats(t *testing.T) {
	cfg := brokenCfg(1)
	// A prefix that crashes process 1 twice is invalid: the simulator
	// reports StopError and the replay fails.
	bad := []sim.Decision{{Proc: 2}, {Proc: 1, Crash: true}, {Proc: 1, Crash: true}}
	st := &Stats{}
	g := &engine{cfg: cfg}
	ex, err := newSessionExec(g, st)
	if err != nil {
		t.Fatalf("newSessionExec: %v", err)
	}
	defer ex.sess.Close()
	err = g.runTask(nil, ex, &wsTask{prefix: bad, crashes: 2}, st)
	if err == nil || !strings.Contains(err.Error(), "replay failed") {
		t.Fatalf("invalid prefix must fail its replay, got %v", err)
	}
	if st.Prefixes != 0 {
		t.Errorf("failed replay counted %d prefixes, want 0", st.Prefixes)
	}
	if st.Steps+st.Resims == 0 {
		t.Error("steps executed before the failure must be counted")
	}
	if st.Witness != nil {
		t.Errorf("failed replay fabricated witness %v", st.Witness)
	}
}

// TestParallelReplayErrorDeterministic checks that when several workers
// fail at once, the reported error is that of the least root decision.
func TestParallelReplayErrorDeterministic(t *testing.T) {
	// Every child's first event fails, and the violation's error names
	// its schedule: with 2 ready processes both workers fail, and the
	// parallel path must always report the proc-1 subtree's error.
	mk := func(workers int) Config {
		cfg := brokenCfg(workers)
		cfg.NewMonitors = func() MonitorSet { return failFirstSet{} }
		return cfg
	}
	seq, seqErr := Run(mk(1))
	for i := 0; i < 20; i++ {
		par, parErr := Run(mk(8))
		if parErr == nil || seqErr == nil {
			t.Fatal("both paths must fail")
		}
		if parErr.Error() != seqErr.Error() {
			t.Fatalf("run %d: parallel error %q != sequential %q", i, parErr, seqErr)
		}
		if !reflect.DeepEqual(par.Witness, seq.Witness) {
			t.Fatalf("run %d: parallel witness %v != sequential %v", i, par.Witness, seq.Witness)
		}
	}
}
