package tm

import (
	"testing"

	"repro/internal/history"
	"repro/internal/safety"
	"repro/internal/sim"
	"repro/slx"
)

func TestDurableTMSequentialSemantics(t *testing.T) {
	env := sim.Script(map[int][]sim.Invocation{
		1: {
			{Op: history.TMStart},
			{Op: history.TMWrite, Obj: "x", Arg: 42},
			{Op: history.TMRead, Obj: "x"},
			{Op: history.TMTryC},
			{Op: history.TMStart},
			{Op: history.TMRead, Obj: "x"},
			{Op: history.TMTryC},
		},
	})
	res := run(t, NewDurableTM(1), 1, env, &sim.RoundRobin{}, 0)
	reads := 0
	for _, op := range res.H.Operations() {
		if op.Name == history.TMRead && op.Done {
			reads++
			if op.Val != 42 {
				t.Errorf("read returned %v, want 42", op.Val)
			}
		}
	}
	if reads != 2 {
		t.Fatalf("expected 2 reads, got %d", reads)
	}
	if cs := commits(res.H); cs[1] != 2 {
		t.Fatalf("expected 2 commits, got %v", cs)
	}
	if !safety.Opaque(res.H) {
		t.Error("history must be opaque")
	}
}

// TestDurableTMCrashAfterFlushRecoveryCommits crashes p1 between its
// intent flush and the commit CAS: the durable log survives, so the
// recovery routine must redo the commit — p2 then observes x=7 although
// p1 never received a commit response.
func TestDurableTMCrashAfterFlushRecoveryCommits(t *testing.T) {
	d := NewDurableTM(2)
	env := sim.Script(map[int][]sim.Invocation{
		1: {{Op: history.TMStart}, {Op: history.TMWrite, Obj: "x", Arg: 7}, {Op: history.TMTryC}},
		2: {{Op: history.TMStart}, {Op: history.TMRead, Obj: "x"}, {Op: history.TMTryC}},
	})
	phase := 0
	sched := sim.SchedulerFunc(func(v *sim.View) (sim.Decision, bool) {
		switch phase {
		case 0: // run p1 until its intent is durable but not yet applied
			if d.logs[1].PeekDurable() != nil && d.c.Peek().(*memState).version == 1 {
				phase = 1
				return sim.Decision{Proc: 1, Crash: true}, true
			}
			return sim.Decision{Proc: 1}, true
		case 1:
			phase = 2
			return sim.Decision{Proc: 1, Recover: true}, true
		case 2: // run p1's recovery until the redo lands
			if d.c.Peek().(*memState).vals["x"] == history.Value(7) {
				phase = 3
			} else {
				return sim.Decision{Proc: 1}, true
			}
		}
		if !v.ReadyContains(2) {
			return sim.Decision{}, false
		}
		return sim.Decision{Proc: 2}, true
	})
	res := run(t, d, 2, env, sched, 200)
	var read history.Value
	for _, op := range res.H.Operations() {
		if op.Proc == 2 && op.Name == history.TMRead && op.Done {
			read = op.Val
		}
	}
	if read != history.Value(7) {
		t.Fatalf("p2 read %v, want 7 (the recovered commit must be visible)", read)
	}
	if cs := commits(res.H); cs[1] != 0 || cs[2] != 1 {
		t.Fatalf("commits %v: p1 crashed before its response, p2 must commit", cs)
	}
	if !safety.Opaque(res.H) {
		t.Fatalf("history must be opaque (p1 is commit-pending): %s", res.H)
	}
}

// TestDurableTMCrashBeforeFlushVanishes crashes p1 after the intent
// write but before its flush: the intent is volatile, the crash wipes
// it, and recovery finds nothing to redo — the transaction vanishes.
func TestDurableTMCrashBeforeFlushVanishes(t *testing.T) {
	d := NewDurableTM(2)
	env := sim.Script(map[int][]sim.Invocation{
		1: {{Op: history.TMStart}, {Op: history.TMWrite, Obj: "x", Arg: 7}, {Op: history.TMTryC}},
		2: {{Op: history.TMStart}, {Op: history.TMRead, Obj: "x"}, {Op: history.TMTryC}},
	})
	phase := 0
	sched := sim.SchedulerFunc(func(v *sim.View) (sim.Decision, bool) {
		switch phase {
		case 0: // run p1 until the intent is written but still volatile
			if d.logs[1].Peek() != nil && d.logs[1].PeekDurable() == nil {
				phase = 1
				return sim.Decision{Proc: 1, Crash: true}, true
			}
			return sim.Decision{Proc: 1}, true
		case 1:
			phase = 2
			return sim.Decision{Proc: 1, Recover: true}, true
		case 2: // one recovery step: the wiped log reads empty
			phase = 3
			return sim.Decision{Proc: 1}, true
		}
		if !v.ReadyContains(2) {
			return sim.Decision{}, false
		}
		return sim.Decision{Proc: 2}, true
	})
	res := run(t, d, 2, env, sched, 200)
	if d.logs[1].Peek() != nil || d.logs[1].PeekDurable() != nil {
		t.Fatal("the unflushed intent must vanish with the crash")
	}
	for _, op := range res.H.Operations() {
		if op.Proc == 2 && op.Name == history.TMRead && op.Done && op.Val == history.Value(7) {
			t.Fatal("p2 observed a write whose commit intent was never durable")
		}
	}
	if got := d.c.Peek().(*memState).version; got != 2 {
		t.Fatalf("central memory version %d, want 2 (only p2's commit)", got)
	}
	if !safety.Opaque(res.H) {
		t.Fatalf("history must be opaque: %s", res.H)
	}
}

// TestDurableTMOpacityExhaustiveWithRecovery explores every schedule —
// including every crash point and recovery interleaving — of a
// two-process write/read workload and requires opacity throughout (a
// crashed tryC is commit-pending: it may take effect, via recovery,
// or vanish, but never both and never partially).
func TestDurableTMOpacityExhaustiveWithRecovery(t *testing.T) {
	tpl := map[int]Txn{
		1: {Accesses: []Access{{Write: true, Var: "x", Val: 1}}},
		2: {Accesses: []Access{{Var: "x"}}},
	}
	exhaust := func(recoveries int) int {
		rep, err := slx.New(
			slx.WithProcs(2),
			slx.WithObject(func() sim.Object { return NewDurableTM(2) }),
			slx.WithEnv(func() sim.Environment { return TxnLoop(tpl) }),
			slx.WithDepth(11),
			slx.WithCrashes(1),
			slx.WithRecoveries(recoveries),
		).Explore(slx.SafetyFunc("opacity", safety.Opaque))
		if err != nil {
			t.Fatalf("explore (recoveries=%d): %v", recoveries, err)
		}
		if !rep.OK() {
			t.Fatalf("explore (recoveries=%d): %s (witness %v)", recoveries, rep.Failures()[0], rep.Witness())
		}
		return rep.Prefixes
	}
	without, with := exhaust(0), exhaust(1)
	if without == 0 {
		t.Fatal("no exploration happened")
	}
	if with <= without {
		t.Fatalf("recovery branching must strictly widen the tree: %d vs %d prefixes", with, without)
	}
}

// TestDurableTMRandomWithRecoveries drives random schedules with crash
// and recovery decisions mixed in and checks opacity of every history.
func TestDurableTMRandomWithRecoveries(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		tpl := RandomWorkload(seed+900, 3, 4, 3)
		sched := sim.RandomRecovery(seed, 0.04, 0.3, 2, 2)
		res := run(t, NewDurableTM(3), 3, TxnLoop(tpl), sim.Limit(sched, 160), 200)
		if !safety.Opaque(res.H) {
			t.Fatalf("seed %d: opacity violated: %s", seed, res.H)
		}
	}
}
