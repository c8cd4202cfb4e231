package tm

import (
	"fmt"
	"repro/internal/base"
	"testing"

	"repro/internal/liveness"
	"repro/internal/safety"
	"repro/internal/sim"
	"repro/slx"
)

// exhaustiveDSTM checks opacity of DSTM on every schedule to the given
// depth, returning the number of explored prefixes.
func exhaustiveDSTM(tpl map[int]Txn, depth int) (int, error) {
	rep, err := slx.New(
		slx.WithProcs(2),
		slx.WithObject(func() sim.Object { return NewDSTM(2) }),
		slx.WithEnv(func() sim.Environment { return TxnLoop(tpl) }),
		slx.WithDepth(depth),
	).Explore(slx.SafetyFunc("opacity", safety.Opaque))
	if err != nil {
		return 0, err
	}
	if !rep.OK() {
		return 0, fmt.Errorf("%s (witness %v)", rep.Failures()[0], rep.Witness())
	}
	return rep.Prefixes, nil
}

func TestDSTMSequentialSemantics(t *testing.T) {
	env := sim.Script(map[int][]sim.Invocation{
		1: {
			{Op: "start"},
			{Op: "write", Obj: "x", Arg: 42},
			{Op: "read", Obj: "x"},
			{Op: "tryC"},
			{Op: "start"},
			{Op: "read", Obj: "x"},
			{Op: "tryC"},
		},
	})
	res := run(t, NewDSTM(1), 1, env, &sim.RoundRobin{}, 0)
	reads := 0
	for _, op := range res.H.Operations() {
		if op.Name == "read" && op.Done {
			reads++
			if op.Val != 42 {
				t.Errorf("read returned %v, want 42", op.Val)
			}
		}
	}
	if reads != 2 {
		t.Fatalf("expected 2 reads, got %d", reads)
	}
	if !safety.Opaque(res.H) {
		t.Error("history must be opaque")
	}
}

func TestDSTMAbortedWritesInvisible(t *testing.T) {
	// p1 writes x inside a transaction that p2 then aborts by stealing;
	// p2 must read the initial value.
	tpl := map[int]Txn{
		1: {Accesses: []Access{{Write: true, Var: "x", Val: 7}}},
		2: {Accesses: []Access{{Var: "x"}}},
	}
	res := run(t, NewDSTM(2), 2, TxnLoop(tpl),
		sim.Seq(
			sim.Limit(sim.Solo(1), 6),  // p1: start + write acquires x
			sim.Limit(sim.Solo(2), 12), // p2: steals x, reads, commits
		), 60)
	// p2's read must return the initial 0, not p1's uncommitted 7.
	for _, op := range res.H.Operations() {
		if op.Proc == 2 && op.Name == "read" && op.Done && op.Val == 7 {
			t.Fatal("p2 observed an uncommitted write")
		}
	}
	if !safety.Opaque(res.H) {
		t.Fatalf("history must be opaque: %s", res.H)
	}
}

func TestDSTMOpacityUnderRandomSchedules(t *testing.T) {
	// Seed 34 of this generator found the post-acquire validation bug
	// during development; keep the seed range wide.
	for seed := int64(0); seed < 250; seed++ {
		tpl := RandomWorkload(seed+500, 3, 4, 3)
		res := run(t, NewDSTM(3), 3, TxnLoop(tpl), sim.Random(seed), 200)
		if !safety.Opaque(res.H) {
			t.Fatalf("seed %d: opacity violated: %s", seed, res.H)
		}
	}
}

func TestDSTMOpacityExhaustiveShallow(t *testing.T) {
	tpl := map[int]Txn{
		1: {Accesses: []Access{{Write: true, Var: "x", Val: 1}}},
		2: {Accesses: []Access{{Var: "x"}}},
	}
	res := 0
	for depth := 10; depth <= 12; depth += 2 {
		st, err := exhaustiveDSTM(tpl, depth)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		res += st
	}
	if res == 0 {
		t.Fatal("no exploration happened")
	}
}

func TestDSTMObstructionFreedom(t *testing.T) {
	// After arbitrary contention, a solo runner steals what it needs and
	// commits.
	tpl := map[int]Txn{
		1: {Accesses: []Access{{Write: true, Var: "x", Val: 1}}},
		2: {Accesses: []Access{{Write: true, Var: "x", Val: 2}}},
	}
	res := run(t, NewDSTM(2), 2, TxnLoop(tpl),
		sim.Seq(
			sim.Limit(sim.Random(11), 50),
			sim.Fixed([]sim.Decision{{Proc: 2, Crash: true}}),
			sim.Limit(sim.Solo(1), 60),
		), 200)
	if commits(res.H)[1] == 0 {
		t.Fatal("the solo runner must commit (obstruction-freedom)")
	}
	e := liveness.FromResult(res, 30)
	if !(liveness.LK{L: 1, K: 1, Good: liveness.TMGood()}).Holds(e) {
		t.Error("(1,1)-freedom must hold on the solo tail")
	}
}

// TestDSTMMutualAbortLivelock demonstrates that DSTM is NOT lock-free,
// unlike GlobalCAS: a scheduler that always runs the process which does
// not own the contended variable makes the two transactions abort each
// other forever — a fair execution with zero commits.
func TestDSTMMutualAbortLivelock(t *testing.T) {
	d := NewDSTM(2)
	tpl := map[int]Txn{
		1: {Accesses: []Access{{Write: true, Var: "x", Val: 1}}},
		2: {Accesses: []Access{{Write: true, Var: "x", Val: 2}}},
	}
	last := 1
	// The scheduler peeks at x's ownership record; allocating it before
	// first use is invisible, since a fresh record is unowned either way.
	x := d.orecFor("x")
	steal := sim.SchedulerFunc(func(v *sim.View) (sim.Decision, bool) {
		target := last
		if rec, _ := x.Peek().(*orec); rec != nil && rec.owner.Peek() == txActive {
			// Run the non-owner so it steals the record before the
			// owner can commit.
			for pid := 1; pid <= 2; pid++ {
				if d.local[pid].Get().(*base.CAS) == rec.owner {
					target = 3 - pid
				}
			}
		}
		last = target
		if !v.ReadyContains(target) {
			return sim.Decision{}, false
		}
		return sim.Decision{Proc: target}, true
	})
	res := run(t, d, 2, TxnLoop(tpl), sim.Limit(steal, 800), 800)
	if cs := commits(res.H); len(cs) != 0 {
		t.Fatalf("steal scheduler should livelock DSTM, got commits %v", cs)
	}
	e := liveness.FromResult(res, 0)
	if !e.Fair() {
		t.Fatal("the livelock schedule must be fair")
	}
	if (liveness.LLockFreedom{L: 1, Good: liveness.TMGood()}).Holds(e) {
		t.Error("1-lock-freedom must fail: DSTM is only obstruction-free")
	}
	// The same schedule logic cannot hurt GlobalCAS: its failed CAS
	// implies the other committed, so commits always flow (shown by the
	// lockstep test in tm_test.go).
}

func TestDSTMNotPropertyS(t *testing.T) {
	// Like GlobalCAS, DSTM lacks the timestamp rule: the Section 5.3 group
	// can commit.
	tpl := map[int]Txn{1: {}, 2: {}, 3: {}}
	sched := sim.FixedProcs([]int{
		1, 2, 3, // three starts (1 step each: descriptor allocation is local)
		1, 1, 2, 2, 3, 3, // tryCs
	})
	res := run(t, NewDSTM(3), 3, TxnLoop(tpl), sched, 0)
	if cs := commits(res.H); len(cs) == 0 {
		t.Fatal("someone must commit")
	}
	if (safety.PropertyS{}).Holds(res.H) {
		t.Error("DSTM must violate property S on this schedule")
	}
}
