package queue

import (
	"testing"

	"repro/internal/history"
	"repro/internal/safety"
	"repro/internal/sim"
	"repro/slx"
)

// explorePersistent checks strict linearizability of the Persistent
// queue on every schedule with the given crash and recovery budgets.
func explorePersistent(t *testing.T, depth, crashes, recoveries int) *slx.Report {
	t.Helper()
	spec := safety.QueueSpec{}
	rep, err := slx.New(
		slx.WithProcs(2),
		slx.WithObject(func() sim.Object { return NewPersistent(2) }),
		slx.WithEnv(func() sim.Environment {
			return sim.Script(map[int][]sim.Invocation{
				1: {{Op: "enq", Arg: "a"}},
				2: {{Op: "deq"}, {Op: "deq"}},
			})
		}),
		slx.WithDepth(depth),
		slx.WithCrashes(crashes),
		slx.WithRecoveries(recoveries),
	).Explore(slx.SafetyFunc("strict-linearizability", func(h history.History) bool {
		return safety.StrictLinearizable(spec, h)
	}))
	if err != nil {
		t.Fatalf("explore (crashes=%d recoveries=%d): %v", crashes, recoveries, err)
	}
	if !rep.OK() {
		t.Fatalf("explore (crashes=%d recoveries=%d): %s (witness %v)", crashes, recoveries, rep.Failures()[0], rep.Witness())
	}
	return rep
}

// TestPersistentStrictLinearizableExhaustive is the positive twin of the
// examples/durablequeue scenario: the guarded redo keeps the queue
// strictly linearizable on every schedule, crash and recovery
// interleavings included — the exact workload on which the
// roll-forward bug violates.
func TestPersistentStrictLinearizableExhaustive(t *testing.T) {
	plain := explorePersistent(t, 14, 0, 0)
	crash := explorePersistent(t, 14, 1, 0)
	rec := explorePersistent(t, 14, 1, 1)
	if plain.Prefixes == 0 {
		t.Fatal("no exploration happened")
	}
	if !(plain.Prefixes < crash.Prefixes && crash.Prefixes < rec.Prefixes) {
		t.Errorf("budgets must strictly widen the tree: %d < %d < %d expected",
			plain.Prefixes, crash.Prefixes, rec.Prefixes)
	}
}

// TestPersistentCrashAfterFlushAppliesOnce pins the redo guard: a crash
// between the intent flush and the committed CAS leaves a durable
// intent, recovery applies it, and the element is delivered exactly
// once.
func TestPersistentCrashAfterFlushAppliesOnce(t *testing.T) {
	q := NewPersistent(2)
	env := sim.Script(map[int][]sim.Invocation{
		1: {{Op: "enq", Arg: "a"}},
		2: {{Op: "deq"}, {Op: "deq"}},
	})
	phase := 0
	sched := sim.SchedulerFunc(func(v *sim.View) (sim.Decision, bool) {
		switch phase {
		case 0: // run p1 until the intent is durable but not applied
			if q.intents[1].PeekDurable() != nil && len(q.committed.Peek().(*qstate).items) == 0 {
				phase = 1
				return sim.Decision{Proc: 1, Crash: true}, true
			}
			return sim.Decision{Proc: 1}, true
		case 1:
			phase = 2
			return sim.Decision{Proc: 1, Recover: true}, true
		case 2: // run recovery until the redo lands
			if len(q.committed.Peek().(*qstate).items) == 1 {
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
	res := sim.Run(sim.Config{Procs: 2, Object: q, Env: env, Scheduler: sched, MaxSteps: 200})
	if res.Err != nil {
		t.Fatalf("run: %v", res.Err)
	}
	var got []history.Value
	for _, op := range res.H.Operations() {
		if op.Proc == 2 && op.Name == "deq" && op.Done {
			got = append(got, op.Val)
		}
	}
	if len(got) != 2 || got[0] != history.Value("a") || got[1] != history.Value(safety.EmptyResp) {
		t.Fatalf("deqs = %v, want [a empty] (exactly-once delivery)", got)
	}
	if !safety.StrictLinearizable(safety.QueueSpec{}, res.H) {
		t.Fatalf("history must be strictly linearizable: %s", res.H)
	}
}

// TestPersistentRandomRecoverySchedules drives random schedules with
// crash and recovery decisions and checks strict linearizability of
// every history.
func TestPersistentRandomRecoverySchedules(t *testing.T) {
	spec := safety.QueueSpec{}
	for seed := int64(0); seed < 200; seed++ {
		res := sim.Run(sim.Config{
			Procs:  2,
			Object: NewPersistent(2),
			Env: sim.Script(map[int][]sim.Invocation{
				1: {{Op: "enq", Arg: "v1"}, {Op: "deq"}},
				2: {{Op: "enq", Arg: "v2"}, {Op: "deq"}},
			}),
			Scheduler:        sim.RandomRecovery(seed, 0.06, 0.3, 2, 2),
			MaxSteps:         300,
			RecoverQuiescent: true,
		})
		if res.Err != nil {
			t.Fatalf("seed %d: %v", seed, res.Err)
		}
		if !safety.StrictLinearizable(spec, res.H) {
			t.Fatalf("seed %d: not strictly linearizable: %s", seed, res.H)
		}
	}
}
