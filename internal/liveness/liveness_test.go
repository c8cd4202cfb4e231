package liveness

import (
	"testing"

	"repro/internal/base"
	"repro/internal/history"
	"repro/internal/sim"
)

// exec builds a synthetic bounded execution: steps is the granted-step
// sequence; events pair history events with the step index at which they
// occurred.
type stampedEvent struct {
	ev   history.Event
	step int
}

func exec(n int, steps []int, window int, events ...stampedEvent) *Execution {
	e := &Execution{
		N:         n,
		Steps:     len(steps),
		StepProcs: steps,
		Window:    window,
	}
	for _, se := range events {
		e.H = append(e.H, se.ev)
		e.EventSteps = append(e.EventSteps, se.step)
	}
	return e
}

func resp(p int, val history.Value) history.Event {
	return history.Response(p, "op", val)
}

func TestSteppersWindow(t *testing.T) {
	// p1 steps early, p2 steps late; with window 2 only p2 counts.
	e := exec(2, []int{1, 1, 2, 2}, 2)
	got := e.Steppers()
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("Steppers = %v, want [2]", got)
	}
	e.Window = 4
	if got := e.Steppers(); len(got) != 2 {
		t.Errorf("Steppers with full window = %v, want both", got)
	}
	// Oversized window clamps.
	e.Window = 100
	if got := e.Steppers(); len(got) != 2 {
		t.Errorf("Steppers with oversized window = %v", got)
	}
}

func TestProgressingWindowAndGoodSet(t *testing.T) {
	e := exec(2, []int{1, 2, 1, 2}, 2,
		stampedEvent{resp(1, history.Commit), 1}, // outside window
		stampedEvent{resp(2, history.Abort), 3},  // in window, bad
		stampedEvent{resp(2, history.Commit), 4}, // in window, good
	)
	if got := e.Progressing(TMGood()); len(got) != 1 || got[0] != 2 {
		t.Errorf("Progressing(TMGood) = %v, want [2]", got)
	}
	// nil Good counts every response.
	if got := e.Progressing(nil); len(got) != 1 || got[0] != 2 {
		t.Errorf("Progressing(nil) = %v, want [2] (p1's is outside window)", got)
	}
}

func TestCorrect(t *testing.T) {
	e := exec(3, []int{1, 2}, 2,
		stampedEvent{history.Crash(3), 2},
	)
	got := e.Correct()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Correct = %v, want [1 2]", got)
	}
}

func TestLLockFreedom(t *testing.T) {
	good := Good(nil)
	t.Run("one of two progresses", func(t *testing.T) {
		e := exec(2, []int{1, 2, 1, 2}, 4,
			stampedEvent{resp(2, history.OK), 4},
		)
		if !(LLockFreedom{L: 1, Good: good}).Holds(e) {
			t.Error("1-lock-freedom holds: p2 progresses")
		}
		if (LLockFreedom{L: 2, Good: good}).Holds(e) {
			t.Error("2-lock-freedom fails: only one process progresses")
		}
	})
	t.Run("fewer correct than l", func(t *testing.T) {
		// Only p1 is correct; l=2 requires all correct to progress.
		withProgress := exec(2, []int{1, 1}, 2,
			stampedEvent{history.Crash(2), 1},
			stampedEvent{resp(1, history.OK), 2},
		)
		if !(LLockFreedom{L: 2, Good: good}).Holds(withProgress) {
			t.Error("with <2 correct, all correct progressing suffices")
		}
		without := exec(2, []int{1, 1}, 2,
			stampedEvent{history.Crash(2), 1},
		)
		if (LLockFreedom{L: 2, Good: good}).Holds(without) {
			t.Error("the sole correct process does not progress")
		}
	})
}

func TestKObstructionFreedom(t *testing.T) {
	good := Good(nil)
	t.Run("gate open", func(t *testing.T) {
		// Three steppers, k=2: nothing required.
		e := exec(3, []int{1, 2, 3}, 3)
		if !(KObstructionFreedom{K: 2, Good: good}).Holds(e) {
			t.Error("more steppers than k means the property is vacuous")
		}
	})
	t.Run("gate closed all progress", func(t *testing.T) {
		e := exec(3, []int{1, 2, 1, 2}, 4,
			stampedEvent{resp(1, history.OK), 3},
			stampedEvent{resp(2, history.OK), 4},
		)
		if !(KObstructionFreedom{K: 2, Good: good}).Holds(e) {
			t.Error("both steppers progress")
		}
	})
	t.Run("gate closed one starves", func(t *testing.T) {
		e := exec(3, []int{1, 2, 1, 2}, 4,
			stampedEvent{resp(2, history.OK), 4},
		)
		if (KObstructionFreedom{K: 2, Good: good}).Holds(e) {
			t.Error("p1 steps in window but never progresses")
		}
	})
}

func TestLKUnionVersusLiteral(t *testing.T) {
	// One process steps and progresses; three processes are correct.
	// OF_3 holds (the sole stepper progresses) so the union form of
	// (2,3)-freedom holds; the literal implication form demands two
	// progressing processes and fails. This documents the gap between
	// Definition 5.1's phrasing and the LF∪OF remark.
	e := exec(3, []int{1, 1, 1, 1}, 4,
		stampedEvent{resp(1, history.OK), 4},
	)
	if !(LK{L: 2, K: 3}).Holds(e) {
		t.Error("union form: OF_3 branch holds")
	}
	if (LKLiteral{L: 2, K: 3}).Holds(e) {
		t.Error("literal form requires >=2 progressing processes")
	}
}

func TestLKHeadlineCases(t *testing.T) {
	t.Run("bivalence-style starvation violates (1,2)", func(t *testing.T) {
		// Two steppers, both correct, zero progress.
		e := exec(2, []int{1, 2, 1, 2}, 4)
		if (LK{L: 1, K: 2}).Holds(e) {
			t.Error("(1,2)-freedom fails: no one progresses")
		}
		if (LKLiteral{L: 1, K: 2}).Holds(e) {
			t.Error("literal agrees on this case")
		}
	})
	t.Run("solo decisions satisfy (1,1)", func(t *testing.T) {
		e := exec(2, []int{1, 1, 1, 1}, 4,
			stampedEvent{history.Crash(2), 0},
			stampedEvent{resp(1, 7), 4},
		)
		if !(LK{L: 1, K: 1}).Holds(e) {
			t.Error("(1,1)-freedom holds: the solo runner decides")
		}
	})
	t.Run("TM starvation violates (2,2) but not (1,n)", func(t *testing.T) {
		e := exec(2, []int{1, 2, 1, 2}, 4,
			stampedEvent{resp(2, history.Commit), 3},
			stampedEvent{resp(1, history.Abort), 4},
		)
		if (LK{L: 2, K: 2, Good: TMGood()}).Holds(e) {
			t.Error("(2,2)-freedom fails: p1 never commits")
		}
		if !(LK{L: 1, K: 2, Good: TMGood()}).Holds(e) {
			t.Error("(1,2)-freedom holds: p2 commits")
		}
	})
}

func TestWaitFreedomAndLocalProgress(t *testing.T) {
	all := exec(2, []int{1, 2}, 2,
		stampedEvent{resp(1, history.Commit), 1},
		stampedEvent{resp(2, history.Commit), 2},
	)
	if !(WaitFreedom{}).Holds(all) {
		t.Error("everyone progresses")
	}
	if !(LocalProgress{}).Holds(all) {
		t.Error("everyone commits")
	}
	one := exec(2, []int{1, 2}, 2,
		stampedEvent{resp(1, history.Abort), 1},
		stampedEvent{resp(2, history.Commit), 2},
	)
	if (LocalProgress{}).Holds(one) {
		t.Error("p1 aborts forever: local progress fails")
	}
	if !(WaitFreedom{}).Holds(one) {
		t.Error("with nil Good, aborts still count as responses")
	}
	crashed := exec(2, []int{2}, 1,
		stampedEvent{history.Crash(1), 0},
		stampedEvent{resp(2, history.Commit), 1},
	)
	if !(LocalProgress{}).Holds(crashed) {
		t.Error("crashed processes are exempt from progress")
	}
}

func TestSFreedom(t *testing.T) {
	p := SFreedom{Sizes: map[int]bool{2: true}}
	matching := exec(3, []int{1, 2, 1, 2}, 4,
		stampedEvent{resp(1, history.OK), 3},
	)
	if p.Holds(matching) {
		t.Error("|P|=2 matches and p2 does not progress")
	}
	off := exec(3, []int{1, 2, 3}, 3)
	if !p.Holds(off) {
		t.Error("|P|=3 not in Sizes: vacuous")
	}
}

func TestNXLiveness(t *testing.T) {
	p := NXLiveness{WaitFree: []int{1}}
	t.Run("wait-free member must progress", func(t *testing.T) {
		e := exec(2, []int{1, 2, 1, 2}, 4,
			stampedEvent{resp(2, history.OK), 4},
		)
		if p.Holds(e) {
			t.Error("p1 is wait-free and must progress")
		}
	})
	t.Run("obstruction member needs solo progress", func(t *testing.T) {
		e := exec(2, []int{2, 2, 2}, 3)
		if p.Holds(e) {
			t.Error("p2 runs solo and must progress")
		}
		ok := exec(2, []int{2, 2, 2}, 3,
			stampedEvent{history.Crash(1), 0},
			stampedEvent{resp(2, history.OK), 3},
		)
		if !p.Holds(ok) {
			t.Error("solo p2 progresses; crashed p1 exempt")
		}
	})
}

// casObject decides via a single CAS; used for the FromResult integration
// test.
type casObject struct {
	c *base.CAS
}

func (o *casObject) Apply(p *sim.Proc, inv sim.Invocation) (v history.Value) {
	p.Exec("cas", func() { o.c.CompareAndSwapW(p, nil, inv.Arg) })
	p.Exec("read", func() { v = o.c.ReadW(p) })
	return v
}

func TestFromResultIntegration(t *testing.T) {
	res := sim.Run(sim.Config{
		Procs:     2,
		Object:    &casObject{c: base.NewCAS(new(base.Mem), "c", nil)},
		Env:       sim.Repeat(sim.Invocation{Op: "propose", Arg: 5}),
		Scheduler: sim.Limit(sim.Alternate(1, 2), 60),
	})
	if res.Err != nil {
		t.Fatalf("run error: %v", res.Err)
	}
	e := FromResult(res, 0)
	if e.N != 2 {
		t.Errorf("N = %d", e.N)
	}
	if e.Steps != 60 {
		t.Errorf("Steps = %d", e.Steps)
	}
	if e.Window != 30 {
		t.Errorf("default window = %d, want half the run", e.Window)
	}
	if got := e.Steppers(); len(got) != 2 {
		t.Errorf("both processes step: %v", got)
	}
	// The CAS object is wait-free: both processes keep receiving
	// responses.
	if !(WaitFreedom{}).Holds(e) {
		t.Error("wait-freedom should hold for the CAS object under alternation")
	}
	if !(LK{L: 2, K: 2}).Holds(e) {
		t.Error("(2,2)-freedom should hold too")
	}
}

func TestPropertyNames(t *testing.T) {
	tests := []struct {
		p    Property
		want string
	}{
		{LK{L: 1, K: 2}, "(1,2)-freedom"},
		{LKLiteral{L: 1, K: 2}, "(1,2)-freedom-literal"},
		{LLockFreedom{L: 3}, "3-lock-freedom"},
		{KObstructionFreedom{K: 2}, "2-obstruction-freedom"},
		{WaitFreedom{}, "wait-freedom"},
		{LocalProgress{}, "local-progress"},
	}
	for _, tt := range tests {
		if got := tt.p.Name(); got != tt.want {
			t.Errorf("Name = %q, want %q", got, tt.want)
		}
	}
}
