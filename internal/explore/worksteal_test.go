package explore

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/consensus"
	"repro/internal/history"
	"repro/internal/safety"
	"repro/internal/sim"
)

// cleanCfg is a clean (no-violation) crash-injected exploration of the
// commit-adopt consensus, sized to force many splits at many depths.
func cleanCfg(workers int, por bool) Config {
	prop := safety.AgreementValidity{}
	return Config{
		Procs:     2,
		NewObject: func() sim.Object { return consensus.NewCommitAdoptOF(2) },
		NewEnv: func() sim.Environment {
			return consensus.ProposeOnce(map[int]history.Value{1: 0, 2: 1})
		},
		Depth:       8,
		Crashes:     1,
		Workers:     workers,
		POR:         por,
		NewMonitors: checkSafety("agreement+validity", prop.Holds),
	}
}

// TestWorkStealingCleanParity: on a clean exploration the work-stealing
// scheduler must enumerate the identical tree as sequential DFS — same
// prefixes, same simulator steps, same prunes — at every worker count,
// with POR off and on. (Under POR the spawned siblings' sleep sets come
// from footprint probes; parity here pins that the probed sets match
// what the sequential recursion accumulates.)
func TestWorkStealingCleanParity(t *testing.T) {
	for _, por := range []bool{false, true} {
		seq, err := Run(cleanCfg(1, por))
		if err != nil {
			t.Fatalf("sequential (por=%v): %v", por, err)
		}
		for _, workers := range []int{2, 3, 8} {
			par, err := Run(cleanCfg(workers, por))
			if err != nil {
				t.Fatalf("workers=%d por=%v: %v", workers, por, err)
			}
			if par.Workers != workers {
				t.Errorf("workers=%d: Stats.Workers = %d", workers, par.Workers)
			}
			if par.Prefixes != seq.Prefixes || par.Steps != seq.Steps || par.Pruned != seq.Pruned {
				t.Errorf("workers=%d por=%v: tree differs from sequential: %d/%d/%d vs %d/%d/%d",
					workers, por, par.Prefixes, par.Steps, par.Pruned, seq.Prefixes, seq.Steps, seq.Pruned)
			}
		}
	}
}

// TestWorkStealingWitnessStress hammers witness determinism under the
// work-stealing scheduler on a multi-violation object with crash
// branching: across repetitions and worker counts, the reported witness
// and error must equal the sequential ones. Run with -race in CI, this
// doubles as the scheduler's data-race stress test.
func TestWorkStealingWitnessStress(t *testing.T) {
	mk := func(workers int) Config {
		cfg := brokenCfg(workers)
		cfg.Depth = 7
		cfg.Crashes = 1
		return cfg
	}
	seq, seqErr := Run(mk(1))
	if seqErr == nil {
		t.Fatal("sequential exploration must find the violation")
	}
	for i := 0; i < 15; i++ {
		for _, workers := range []int{2, 4, 8} {
			par, parErr := Run(mk(workers))
			if parErr == nil {
				t.Fatalf("run %d workers=%d: violation not found", i, workers)
			}
			if parErr.Error() != seqErr.Error() {
				t.Fatalf("run %d workers=%d: error %q != sequential %q", i, workers, parErr, seqErr)
			}
			if !reflect.DeepEqual(par.Witness, seq.Witness) {
				t.Fatalf("run %d workers=%d: witness %v != sequential %v", i, workers, par.Witness, seq.Witness)
			}
		}
	}
}

// TestWorkStealingCancellation: cancelling the context aborts the pool
// and surfaces the context error from every worker count.
func TestWorkStealingCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		cfg := cleanCfg(workers, false)
		cfg.Ctx = ctx
		_, err := Run(cfg)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestCacheRequiresMonitors pins the engine-level guard: the cache keys
// on the monitor set's digest, and a Config without NewMonitors is a
// configuration error with or without Cache, never a silent no-op.
func TestCacheRequiresMonitors(t *testing.T) {
	for _, cache := range []bool{false, true} {
		cfg := cleanCfg(1, false)
		cfg.NewMonitors = nil
		cfg.Cache = cache
		if _, err := Run(cfg); err == nil {
			t.Fatalf("Cache=%v without NewMonitors must be rejected", cache)
		}
	}
}

// TestVisitedSetSemantics unit-tests the concurrent visited set: budget
// dominance, sleep-set coverage, and pareto pruning of entries.
func TestVisitedSetSemantics(t *testing.T) {
	v := newVisitedSet()
	s1 := []sleepEntry{{d: sim.Decision{Proc: 1}, a: sim.Access{Obj: "r", Known: true}}}

	v.store(42, 3, 1, 1, nil)
	if !v.hit(42, 3, 1, 1, nil) {
		t.Error("exact replica not hit")
	}
	if !v.hit(42, 2, 0, 0, nil) {
		t.Error("smaller budget not dominated")
	}
	if v.hit(42, 4, 1, 1, nil) {
		t.Error("deeper budget wrongly hit")
	}
	if v.hit(42, 3, 2, 1, nil) {
		t.Error("larger crash budget wrongly hit")
	}
	if v.hit(42, 3, 1, 2, nil) {
		t.Error("larger recovery budget wrongly hit")
	}
	if v.hit(7, 3, 1, 1, nil) {
		t.Error("different key hit")
	}

	// Stored under sleep set s1: only arrivals whose sleep set covers s1
	// may prune (the stored exploration skipped s1's branches).
	v.store(99, 5, 0, 0, s1)
	if v.hit(99, 5, 0, 0, nil) {
		t.Error("arrival with empty sleep set hit an entry stored under a sleep set")
	}
	if !v.hit(99, 5, 0, 0, s1) {
		t.Error("arrival with covering sleep set not hit")
	}
	// A stronger store (same budget, no sleeping) supersedes s1's entry
	// and serves both arrivals.
	v.store(99, 5, 0, 0, nil)
	if !v.hit(99, 5, 0, 0, nil) || !v.hit(99, 5, 0, 0, s1) {
		t.Error("stronger entry does not serve both arrivals")
	}
	if got := len(v.shard(99).m[99]); got != 1 {
		t.Errorf("dominated entry not pruned: %d entries", got)
	}
}
