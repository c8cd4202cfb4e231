package service

import (
	"reflect"
	"testing"

	"repro/slx"
	"repro/slx/check"
	"repro/slx/run"
)

// TestReplayRecoversQuiescent: a witness that recovers a process while
// no process is ready replays to its end. With one process, the crash
// inside the journaled enqueue leaves nothing ready, so Replay must
// still consult the witness, whose next decision is the recover, rather
// than stop the run as quiescent and judge the two-event prefix.
func TestReplayRecoversQuiescent(t *testing.T) {
	c := slx.New(
		slx.WithProcs(1),
		slx.WithObject(func() run.Object { return newDurQueue(1) }),
		slx.WithEnv(func() run.Environment {
			return run.Script(map[int][]run.Invocation{
				1: {{Op: "enq", Arg: "a"}, {Op: "deq"}, {Op: "deq"}},
			})
		}),
		slx.WithCrashes(1),
		slx.WithRecoveries(1),
		slx.WithDepth(20),
	)
	prop := func() slx.Property { return check.StrictLinearizability(check.QueueSpec{}) }
	rep, err := c.Explore(prop())
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	witness := rep.Witness()
	if rep.OK() || witness == nil {
		t.Fatal("explore must find the roll-forward duplicate")
	}
	replayed, err := c.Replay(witness, prop())
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if replayed.OK() {
		t.Fatalf("witness %v replayed clean on %v", witness, replayed.Execution.H)
	}
	if !reflect.DeepEqual(replayed.Schedule, witness) {
		t.Fatalf("replay ran %v, witness is %v", replayed.Schedule, witness)
	}
}
