package sim

import (
	"errors"
	goruntime "runtime"
	"testing"

	"repro/internal/base"
	"repro/internal/history"
	"repro/internal/quickseed"
)

// regObject exposes a single register through read/write operations; used
// to exercise the runtime.
type regObject struct {
	r *base.Register
}

func newRegObject() *regObject {
	return &regObject{r: base.NewRegister(new(base.Mem), "r", 0)}
}

func (o *regObject) Apply(p *Proc, inv Invocation) (v history.Value) {
	switch inv.Op {
	case "read":
		p.Exec("read", func() { v = o.r.ReadW(p) })
	case "write":
		p.Exec("write", func() { o.r.WriteW(p, inv.Arg) })
		v = history.OK
	}
	return v
}

// blockObject parks every caller forever (the trivial implementation I_t).
type blockObject struct{}

func (blockObject) Apply(p *Proc, inv Invocation) history.Value {
	p.Block()
	return nil
}

func TestRunSequentialReadWrite(t *testing.T) {
	res := Run(Config{
		Procs:  1,
		Object: newRegObject(),
		Env: Script(map[int][]Invocation{
			1: {{Op: "write", Arg: 5}, {Op: "read"}},
		}),
		Scheduler: &RoundRobin{},
	})
	if res.Err != nil {
		t.Fatalf("run error: %v", res.Err)
	}
	if res.Reason != StopQuiescent {
		t.Fatalf("reason = %v, want quiescent", res.Reason)
	}
	if !res.H.WellFormed() {
		t.Fatalf("history not well-formed: %s", res.H)
	}
	ops := res.H.Operations()
	if len(ops) != 2 || !ops[1].Done || ops[1].Val != 5 {
		t.Fatalf("ops = %+v; read should return 5", ops)
	}
	// Each operation costs one invocation step plus one base-object step.
	if res.Steps != 4 {
		t.Errorf("steps = %d, want 4 (2 invokes + 2 register ops)", res.Steps)
	}
}

func TestRunInterleavingControlsHistoryOrder(t *testing.T) {
	// p1 writes 1, p2 writes 2; the scheduler fully determines the final
	// register value.
	mk := func(order []int) history.Value {
		obj := newRegObject()
		res := Run(Config{
			Procs:  2,
			Object: obj,
			Env: Script(map[int][]Invocation{
				1: {{Op: "write", Arg: 1}, {Op: "read"}},
				2: {{Op: "write", Arg: 2}},
			}),
			Scheduler: FixedProcs(order),
		})
		if res.Err != nil {
			t.Fatalf("run error: %v", res.Err)
		}
		ops := res.H.Operations()
		for _, op := range ops {
			if op.Proc == 1 && op.Name == "read" && op.Done {
				return op.Val
			}
		}
		return nil
	}
	// p1 invokes+writes, p2 invokes+writes, then p1 reads → sees 2.
	if got := mk([]int{1, 1, 2, 2, 1, 1}); got != 2 {
		t.Errorf("read after p2's write = %v, want 2", got)
	}
	// p2 first, then p1's write, then read → sees 1.
	if got := mk([]int{2, 2, 1, 1, 1, 1}); got != 1 {
		t.Errorf("read after p1's write = %v, want 1", got)
	}
}

func TestRunDeterministicReplay(t *testing.T) {
	cfg := func() Config {
		return Config{
			Procs:  3,
			Object: newRegObject(),
			Env: Script(map[int][]Invocation{
				1: {{Op: "write", Arg: 1}, {Op: "read"}, {Op: "write", Arg: 3}},
				2: {{Op: "read"}, {Op: "write", Arg: 2}},
				3: {{Op: "read"}, {Op: "read"}},
			}),
		}
	}
	c1 := cfg()
	c1.Scheduler = Random(42)
	first := Run(c1)
	if first.Err != nil {
		t.Fatalf("first run error: %v", first.Err)
	}
	c2 := cfg()
	c2.Scheduler = Fixed(first.Schedule)
	second := Run(c2)
	if second.Err != nil {
		t.Fatalf("replay error: %v", second.Err)
	}
	if !first.H.Equal(second.H) {
		t.Fatalf("replay diverged:\n first: %s\nsecond: %s", first.H, second.H)
	}
	if first.Steps != second.Steps {
		t.Errorf("replay step count %d != %d", second.Steps, first.Steps)
	}
}

func TestRunCrash(t *testing.T) {
	res := Run(Config{
		Procs:  2,
		Object: newRegObject(),
		Env: Script(map[int][]Invocation{
			1: {{Op: "write", Arg: 1}},
			2: {{Op: "write", Arg: 2}},
		}),
		Scheduler: Fixed([]Decision{
			{Proc: 1},              // p1 invokes write(1)
			{Proc: 1, Crash: true}, // p1 crashes mid-operation
			{Proc: 2}, {Proc: 2},   // p2 completes
		}),
	})
	if res.Err != nil {
		t.Fatalf("run error: %v", res.Err)
	}
	if !res.H.Crashed(1) {
		t.Fatal("history should record crash of p1")
	}
	if !res.H.WellFormed() {
		t.Fatalf("history not well-formed: %s", res.H)
	}
	if res.H.Pending(1) != true {
		t.Error("p1 crashed pending; its operation must stay pending")
	}
	if res.StepsBy[1] != 1 {
		t.Errorf("p1 steps = %d, want 1 (crash is not a step)", res.StepsBy[1])
	}
	// p2's write must have completed despite p1's crash (non-blocking
	// system).
	found := false
	for _, op := range res.H.Operations() {
		if op.Proc == 2 && op.Done {
			found = true
		}
	}
	if !found {
		t.Error("p2's operation should complete")
	}
}

func TestRunBlockedImplementation(t *testing.T) {
	res := Run(Config{
		Procs:     1,
		Object:    blockObject{},
		Env:       OneShot(map[int]Invocation{1: {Op: "op"}}),
		Scheduler: &RoundRobin{},
	})
	if res.Err != nil {
		t.Fatalf("run error: %v", res.Err)
	}
	if res.Reason != StopQuiescent {
		t.Errorf("reason = %v, want quiescent (process parked)", res.Reason)
	}
	if res.H.Pending(1) != true {
		t.Error("operation must be pending forever")
	}
	if n := len(res.H); n != 1 {
		t.Errorf("history has %d events, want just the invocation", n)
	}
}

func TestRunBudget(t *testing.T) {
	res := Run(Config{
		Procs:     1,
		Object:    newRegObject(),
		Env:       Repeat(Invocation{Op: "read"}),
		Scheduler: &RoundRobin{},
		MaxSteps:  7,
	})
	if res.Reason != StopBudget {
		t.Errorf("reason = %v, want budget", res.Reason)
	}
	if res.Steps != 7 {
		t.Errorf("steps = %d, want 7", res.Steps)
	}
}

func TestRunSoloScheduler(t *testing.T) {
	res := Run(Config{
		Procs:  2,
		Object: newRegObject(),
		Env: Script(map[int][]Invocation{
			1: {{Op: "write", Arg: 1}},
			2: {{Op: "write", Arg: 2}},
		}),
		Scheduler: Solo(2),
	})
	if res.StepsBy[1] != 0 {
		t.Errorf("p1 took %d steps under Solo(2)", res.StepsBy[1])
	}
	if res.StepsBy[2] != 2 {
		t.Errorf("p2 took %d steps, want 2", res.StepsBy[2])
	}
	if res.Reason != StopScheduler {
		t.Errorf("reason = %v, want scheduler stop once p2 is idle", res.Reason)
	}
}

func TestRunSchedulerErrors(t *testing.T) {
	t.Run("invalid proc id", func(t *testing.T) {
		res := Run(Config{
			Procs:     1,
			Object:    newRegObject(),
			Env:       OneShot(map[int]Invocation{1: {Op: "read"}}),
			Scheduler: FixedProcs([]int{5}),
		})
		// FixedProcs skips non-ready ids, so use a raw scheduler instead.
		_ = res
		res = Run(Config{
			Procs:  1,
			Object: newRegObject(),
			Env:    OneShot(map[int]Invocation{1: {Op: "read"}}),
			Scheduler: SchedulerFunc(func(v *View) (Decision, bool) {
				return Decision{Proc: 5}, true
			}),
		})
		if res.Reason != StopError || res.Err == nil {
			t.Errorf("want error for invalid process, got %v / %v", res.Reason, res.Err)
		}
	})
	t.Run("double crash", func(t *testing.T) {
		res := Run(Config{
			Procs:  2,
			Object: newRegObject(),
			Env:    Repeat(Invocation{Op: "read"}),
			Scheduler: Fixed([]Decision{
				{Proc: 1, Crash: true},
				{Proc: 1, Crash: true},
			}),
		})
		if res.Reason != StopError || res.Err == nil {
			t.Errorf("want error for double crash, got %v / %v", res.Reason, res.Err)
		}
	})
	t.Run("zero procs", func(t *testing.T) {
		res := Run(Config{})
		if res.Reason != StopError {
			t.Error("want error for zero processes")
		}
	})
}

func TestRunEventStepsMonotone(t *testing.T) {
	res := Run(Config{
		Procs:  2,
		Object: newRegObject(),
		Env: Script(map[int][]Invocation{
			1: {{Op: "write", Arg: 1}, {Op: "read"}},
			2: {{Op: "read"}},
		}),
		Scheduler: Random(7),
	})
	if len(res.EventSteps) != len(res.H) {
		t.Fatalf("EventSteps length %d != history length %d", len(res.EventSteps), len(res.H))
	}
	for i := 1; i < len(res.EventSteps); i++ {
		if res.EventSteps[i] < res.EventSteps[i-1] {
			t.Fatalf("EventSteps not monotone at %d: %v", i, res.EventSteps)
		}
	}
}

func TestAlternateScheduler(t *testing.T) {
	res := Run(Config{
		Procs:     2,
		Object:    newRegObject(),
		Env:       Repeat(Invocation{Op: "read"}),
		Scheduler: Limit(Alternate(1, 2), 10),
	})
	if res.StepsBy[1] != 5 || res.StepsBy[2] != 5 {
		t.Errorf("steps = %v, want perfect alternation 5/5", res.StepsBy)
	}
}

func TestRandomCrashyInjectsAtMostMax(t *testing.T) {
	res := Run(Config{
		Procs:     3,
		Object:    newRegObject(),
		Env:       Repeat(Invocation{Op: "read"}),
		Scheduler: RandomCrashy(1, 0.2, 2),
		MaxSteps:  200,
	})
	crashes := 0
	for _, e := range res.H {
		if e.Kind == history.KindCrash {
			crashes++
		}
	}
	if crashes > 2 {
		t.Errorf("injected %d crashes, max 2", crashes)
	}
	if !res.H.WellFormed() {
		t.Error("history must stay well-formed under crashes")
	}
}

// TestViewCountsMatchHistory: under crashes and recoveries, every view
// a scheduler or an environment sees counts, per process, the steps
// granted and the invocation events its history holds (crashed
// operations included), which is the position the stock environments
// read.
func TestViewCountsMatchHistory(t *testing.T) {
	check := func(who string, v *View) {
		steps := 0
		for id := 1; id < len(v.StepsBy); id++ {
			steps += v.StepsBy[id]
			invoked := 0
			for _, e := range v.H {
				if e.Kind == history.KindInvoke && e.Proc == id {
					invoked++
				}
			}
			if v.Invoked[id] != invoked {
				t.Fatalf("%s view: Invoked[%d] = %d, history holds %d invocations: %s", who, id, v.Invoked[id], invoked, v.H)
			}
		}
		if steps != v.Steps {
			t.Fatalf("%s view: StepsBy sums to %d, Steps = %d", who, steps, v.Steps)
		}
	}
	recovered := 0
	for seed := int64(1); seed <= 20; seed++ {
		sched := RandomRecovery(seed, 0.2, 0.3, 3, 3)
		script := Script(map[int][]Invocation{
			1: {{Op: "write", Arg: 1}, {Op: "read"}, {Op: "write", Arg: 3}},
			2: {{Op: "read"}, {Op: "write", Arg: 2}},
			3: {{Op: "read"}, {Op: "read"}, {Op: "read"}},
		})
		res := Run(Config{
			Procs:  3,
			Object: newRegObject(),
			Env: EnvironmentFunc(func(proc int, v *View) (Invocation, bool) {
				check("environment", v)
				return script.Next(proc, v)
			}),
			Scheduler: SchedulerFunc(func(v *View) (Decision, bool) {
				check("scheduler", v)
				return sched.Next(v)
			}),
			MaxSteps:         60,
			RecoverQuiescent: true,
		})
		if res.Err != nil {
			t.Fatalf("seed %d: %v", seed, res.Err)
		}
		for _, e := range res.H {
			if e.Kind == history.KindRecover {
				recovered++
			}
		}
	}
	if recovered == 0 {
		t.Fatal("no run recovered a crashed process")
	}
}

func TestQuickDeterminismPerSeed(t *testing.T) {
	// Two runs with the same seed must produce identical histories,
	// schedules, and step counts.
	f := func(seed int64, budget uint8) bool {
		steps := 10 + int(budget)%120
		mk := func() *Result {
			return Run(Config{
				Procs:  3,
				Object: newRegObject(),
				Env: Script(map[int][]Invocation{
					1: {{Op: "write", Arg: 1}, {Op: "read"}},
					2: {{Op: "read"}, {Op: "write", Arg: 2}},
					3: {{Op: "read"}},
				}),
				Scheduler: Random(seed),
				MaxSteps:  steps,
			})
		}
		a, b := mk(), mk()
		if !a.H.Equal(b.H) || a.Steps != b.Steps {
			return false
		}
		for i := range a.Schedule {
			if a.Schedule[i] != b.Schedule[i] {
				return false
			}
		}
		return true
	}
	quickseed.Check(t, f, 100)
}

func TestSeqScheduler(t *testing.T) {
	// First run p1 solo for its write, then p2 solo.
	res := Run(Config{
		Procs:  2,
		Object: newRegObject(),
		Env: Script(map[int][]Invocation{
			1: {{Op: "write", Arg: 1}},
			2: {{Op: "read"}},
		}),
		Scheduler: Seq(Solo(1), Solo(2)),
	})
	ops := res.H.Operations()
	if len(ops) != 2 {
		t.Fatalf("ops = %+v", ops)
	}
	if ops[1].Proc != 2 || ops[1].Val != 1 {
		t.Errorf("p2 should read 1 after p1's solo write: %+v", ops[1])
	}
}

// TestRunSteppedStartsNoGoroutine: Run dispatches a Stepped object's
// frames directly, so the run starts no goroutine; under ApplyOnly the
// same object's blocking Apply calls each run on a goroutine of their
// own, which the probe must see.
func TestRunSteppedStartsNoGoroutine(t *testing.T) {
	script := map[int][]Invocation{
		1: {{Op: "mix", Arg: 1}, {Op: "read"}},
		2: {{Op: "mix", Arg: 2}},
	}
	run := func(obj Object) (base, peak int) {
		base = goruntime.NumGoroutine()
		peak = base
		rr := &RoundRobin{}
		res := Run(Config{
			Procs: 2, Object: obj, Env: Script(script),
			Scheduler: SchedulerFunc(func(v *View) (Decision, bool) {
				peak = max(peak, goruntime.NumGoroutine())
				return rr.Next(v)
			}),
		})
		if res.Err != nil || res.Reason != StopQuiescent {
			t.Fatalf("run over %T stopped with %v / %v", obj, res.Reason, res.Err)
		}
		return base, peak
	}
	if base, peak := run(newSnapObject(2)); peak > base {
		t.Errorf("Run over a Stepped object peaked at %d goroutines, baseline %d", peak, base)
	}
	if base, peak := run(ApplyOnly(newSnapObject(2))); peak <= base {
		t.Errorf("probe saw no Apply goroutine under ApplyOnly (peak %d, baseline %d)", peak, base)
	}
}

// TestRunApplyPanicRecoverable: a panic in a blocking Apply re-panics on
// Run's goroutine, where the caller can recover it, and the other
// processes' parked calls are unwound.
func TestRunApplyPanicRecoverable(t *testing.T) {
	boom := errors.New("boom")
	obj := ObjectFunc(func(p *Proc, inv Invocation) history.Value {
		p.Exec("step", func() {})
		if p.ID() == 1 {
			panic(boom)
		}
		return nil
	})
	base := goruntime.NumGoroutine()
	got := func() (v any) {
		defer func() { v = recover() }()
		Run(Config{
			Procs:  2,
			Object: obj,
			Env:    OneShot(map[int]Invocation{1: {Op: "op"}, 2: {Op: "op"}}),
			// Both processes invoke and park at their Exec, then process
			// 1's window panics.
			Scheduler: FixedProcs([]int{1, 2, 1}),
		})
		return nil
	}()
	if got != boom {
		t.Fatalf("recovered %v, want %v", got, boom)
	}
	if n := settledGoroutines(base); n > base {
		t.Errorf("%d goroutines after the panic, want the baseline %d", n, base)
	}
}

// execInBegin is a Stepped object whose Begin wrongly calls the
// blocking Exec.
type execInBegin struct{ ObjectFunc }

func (execInBegin) Begin(p *Proc, inv Invocation) (Frame, history.Value, StepStatus) {
	p.Exec("stray", func() {})
	return nil, nil, StepDone
}

// TestExecOutsideApplyPanics: Exec belongs to an in-flight blocking
// Apply call. Called from a Stepped machine, or through a handle whose
// call has completed, it panics instead of deadlocking.
func TestExecOutsideApplyPanics(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Exec %s did not panic", what)
			}
		}()
		f()
	}
	env := func() Environment { return OneShot(map[int]Invocation{1: {Op: "op"}}) }
	var kept *Proc
	keep := ObjectFunc(func(p *Proc, inv Invocation) history.Value {
		kept = p
		return nil
	})
	Run(Config{Procs: 1, Object: keep, Env: env(), Scheduler: &RoundRobin{}})
	mustPanic("after the call completed", func() { kept.Exec("stray", func() {}) })
	mustPanic("from a Stepped machine", func() {
		Run(Config{Procs: 1, Object: execInBegin{keep}, Env: env(), Scheduler: &RoundRobin{}})
	})
}
