package sample

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/base"
	"repro/internal/explore"
	"repro/internal/history"
	"repro/internal/safety"
	"repro/internal/sim"
)

// linSet adapts a safety monitor to explore.MonitorSet.
type linSet struct{ m safety.Monitor }

func (s *linSet) Step(e history.Event) error {
	if !s.m.Step(e) {
		return fmt.Errorf("linearizability violated")
	}
	return nil
}

func (s *linSet) Fork(explore.MonitorSet) explore.MonitorSet { return &linSet{m: s.m.Fork(nil)} }

func newLinSet() explore.MonitorSet {
	return &linSet{m: safety.NewLinMonitor(safety.RegisterSpec{Initial: nil})}
}

// okReg is a linearizable register with full session hooks (snapshot,
// fingerprint, footprints) via the base register's memory.
type okReg struct {
	base.Mem
	r *base.Register
}

func newOKReg() *okReg {
	o := &okReg{}
	o.r = base.NewRegister(&o.Mem, "r", nil)
	return o
}

func (o *okReg) Apply(p *sim.Proc, inv sim.Invocation) history.Value {
	return sim.ApplyFrames(o, p, inv)
}

func (o *okReg) Footprints() bool                 { return true }
func (o *okReg) Fingerprint(f *sim.Fingerprinter) { o.Fold(f) }

// okRegFrame is one in-flight okReg operation: a single register access.
type okRegFrame struct {
	o   *okReg
	inv sim.Invocation
}

// Begin implements sim.Stepped.
func (o *okReg) Begin(p *sim.Proc, inv sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	switch inv.Op {
	case "read", "write":
		return &okRegFrame{o: o, inv: inv}, nil, sim.StepPaused
	}
	return nil, nil, sim.StepDone
}

// Step implements sim.Frame.
func (f *okRegFrame) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	if f.inv.Op == "read" {
		return f.o.r.ReadW(p), sim.StepDone
	}
	f.o.r.WriteW(p, f.inv.Arg)
	return history.OK, sim.StepDone
}

// Fork implements sim.Frame: the frame is immutable.
func (f *okRegFrame) Fork() sim.Frame { return f }

// lossyReg drops process 2's writes while acknowledging them: its
// write-then-read is not linearizable. Hand-rolled hooks (the reference
// pattern for custom session-capable objects).
type lossyReg struct{ v history.Value }

func (o *lossyReg) Apply(p *sim.Proc, inv sim.Invocation) history.Value {
	var out history.Value
	switch inv.Op {
	case "read":
		p.Exec("read", func() {
			p.Access("r", false)
			out = o.v
			p.Observe(out)
		})
	case "write":
		p.Exec("write", func() {
			out = history.OK
			p.Access("r", true)
			if p.ID() != 2 {
				o.v = inv.Arg
			}
		})
	}
	return out
}

func (o *lossyReg) Footprints() bool                 { return true }
func (o *lossyReg) Fingerprint(f *sim.Fingerprinter) { f.Str("r"); f.Val(o.v) }
func (o *lossyReg) Snapshot() any                    { return o.v }
func (o *lossyReg) Restore(s any)                    { o.v = s }

// lossyRegFrame is one in-flight lossyReg operation: a single window.
type lossyRegFrame struct {
	o   *lossyReg
	inv sim.Invocation
}

// Begin implements sim.Stepped.
func (o *lossyReg) Begin(p *sim.Proc, inv sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	switch inv.Op {
	case "read", "write":
		return &lossyRegFrame{o: o, inv: inv}, nil, sim.StepPaused
	}
	return nil, nil, sim.StepDone
}

// Step implements sim.Frame.
func (f *lossyRegFrame) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	o := f.o
	if f.inv.Op == "read" {
		p.Access("r", false)
		out := o.v
		p.Observe(out)
		return out, sim.StepDone
	}
	p.Access("r", true)
	if p.ID() != 2 {
		o.v = f.inv.Arg
	}
	return history.OK, sim.StepDone
}

// Fork implements sim.Frame: the frame is immutable.
func (f *lossyRegFrame) Fork() sim.Frame { return f }

func regScript(procs int) func() sim.Environment {
	return func() sim.Environment {
		script := map[int][]sim.Invocation{}
		for p := 1; p <= procs; p++ {
			script[p] = []sim.Invocation{{Op: "write", Arg: p}, {Op: "read"}}
		}
		return sim.Script(script)
	}
}

func okCfg() Config {
	return Config{
		Procs:        3,
		NewObject:    func() sim.Object { return newOKReg() },
		NewEnv:       regScript(3),
		NewMonitors:  newLinSet,
		Schedules:    300,
		Steps:        12,
		Crashes:      1,
		Strategy:     PCT,
		ChangePoints: 3,
		Seed:         7,
		Workers:      1,
	}
}

func lossyCfg() Config {
	cfg := okCfg()
	cfg.NewObject = func() sim.Object { return &lossyReg{} }
	cfg.Crashes = 0
	return cfg
}

// eq compares two Stats modulo the Workers field (a config echo).
func eq(a, b *Stats) bool {
	aa, bb := *a, *b
	aa.Workers, bb.Workers = 0, 0
	return reflect.DeepEqual(aa, bb)
}

// applyOnly forces cfg onto the session's from-root strategy by hiding
// the object's continuation and snapshot hooks.
func applyOnly(cfg Config) Config {
	newObj := cfg.NewObject
	cfg.NewObject = func() sim.Object { return sim.ApplyOnly(newObj()) }
	return cfg
}

// TestSessionReplayParity: the snapshot and from-root session
// strategies must produce identical stats, seeds and witnesses for the
// same master seed, on clean and violating objects, with and without
// crashes.
func TestSessionReplayParity(t *testing.T) {
	for name, mk := range map[string]func() Config{"ok": okCfg, "lossy": lossyCfg} {
		t.Run(name, func(t *testing.T) {
			cfg := mk()
			sess, serr := Run(cfg)
			cfg2 := applyOnly(mk())
			repl, rerr := Run(cfg2)
			if sess == nil || repl == nil {
				t.Fatalf("engine failure: session err=%v, replay err=%v", serr, rerr)
			}
			if !sim.CanSnapshot(cfg.NewObject()) || sim.CanSnapshot(cfg2.NewObject()) {
				t.Fatal("strategy selection wrong: the fixture must snapshot and its ApplyOnly wrapper must not")
			}
			if !eq(sess, repl) {
				t.Fatalf("stats diverge:\nsession %+v\nreplay  %+v", sess, repl)
			}
			var sv, rv *explore.Violation
			if errors.As(serr, &sv) != errors.As(rerr, &rv) {
				t.Fatalf("verdicts diverge: session err=%v, replay err=%v", serr, rerr)
			}
			if sv != nil {
				if !reflect.DeepEqual(sv.Schedule, rv.Schedule) || sv.EventIndex != rv.EventIndex {
					t.Fatalf("witnesses diverge:\nsession %v @%d\nreplay  %v @%d", sv.Schedule, sv.EventIndex, rv.Schedule, rv.EventIndex)
				}
				if !reflect.DeepEqual(sv.H, rv.H) {
					t.Fatalf("violation histories diverge:\n%v\n%v", sv.H, rv.H)
				}
			}
			t.Logf("%s: %+v", name, sess)
		})
	}
}

// TestWorkerDeterminism: identical Stats at 1 and 4 workers for a fixed
// master seed, clean and violating.
func TestWorkerDeterminism(t *testing.T) {
	for name, mk := range map[string]func() Config{"ok": okCfg, "lossy": lossyCfg} {
		t.Run(name, func(t *testing.T) {
			cfg1 := mk()
			one, err1 := Run(cfg1)
			cfg4 := mk()
			cfg4.Workers = 4
			four, err4 := Run(cfg4)
			if one == nil || four == nil {
				t.Fatalf("engine failure: %v / %v", err1, err4)
			}
			if !eq(one, four) {
				t.Fatalf("stats depend on worker count:\n1 worker  %+v\n4 workers %+v", one, four)
			}
			var v1, v4 *explore.Violation
			errors.As(err1, &v1)
			errors.As(err4, &v4)
			if (v1 == nil) != (v4 == nil) || (v1 != nil && !reflect.DeepEqual(v1.Schedule, v4.Schedule)) {
				t.Fatalf("violations depend on worker count: %v vs %v", err1, err4)
			}
		})
	}
}

// TestFailingSeedReproduces: a violation's recorded seed re-derives the
// failing schedule as schedule 0 of a single-schedule run, and its
// witness replays to the same violation on a fresh from-root run.
func TestFailingSeedReproduces(t *testing.T) {
	cfg := lossyCfg()
	st, err := Run(cfg)
	if st == nil {
		t.Fatalf("engine failure: %v", err)
	}
	if !st.Failed {
		t.Fatal("PCT must find the lossy-register violation within the budget")
	}
	var vio *explore.Violation
	if !errors.As(err, &vio) {
		t.Fatalf("violation must be an *explore.Violation, got %v", err)
	}
	if want := cfg.Seed + int64(st.FailingSchedule); st.FailingSeed != want {
		t.Fatalf("FailingSeed=%d, want seed+index=%d", st.FailingSeed, want)
	}

	re := lossyCfg()
	re.Seed = st.FailingSeed
	re.Schedules = 1
	rst, rerr := Run(re)
	if rst == nil || !rst.Failed || rst.FailingSchedule != 0 {
		t.Fatalf("failing seed did not reproduce: stats=%+v err=%v", rst, rerr)
	}
	var rvio *explore.Violation
	if !errors.As(rerr, &rvio) || !reflect.DeepEqual(rvio.Schedule, vio.Schedule) {
		t.Fatalf("reproduced witness differs: %v vs %v", rerr, vio.Schedule)
	}

	// The witness replays to the same verdict on a plain fixed-schedule
	// run.
	res := sim.Run(sim.Config{
		Procs:     cfg.Procs,
		Object:    &lossyReg{},
		Env:       regScript(cfg.Procs)(),
		Scheduler: sim.Fixed(vio.Schedule),
		MaxSteps:  len(vio.Schedule) + 1,
	})
	if res.Err != nil {
		t.Fatalf("witness replay failed: %v", res.Err)
	}
	m := safety.NewLinMonitor(safety.RegisterSpec{Initial: nil})
	for _, e := range res.H {
		m.Step(e)
	}
	if m.OK() {
		t.Fatalf("witness %v replayed clean", vio.Schedule)
	}
}

// TestDistinctStates: terminal-state dedup counts more than one state on
// a clean register but never more than the schedule count, and none on
// an object without the sim.Fingerprintable hook.
func TestDistinctStates(t *testing.T) {
	st, err := Run(okCfg())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if st.DistinctStates < 2 || st.DistinctStates > st.Schedules {
		t.Fatalf("implausible distinct-state count %d over %d schedules", st.DistinctStates, st.Schedules)
	}
	cfg := okCfg()
	// Embedding the interface keeps Apply and drops every hook.
	cfg.NewObject = func() sim.Object { return struct{ sim.Object }{newOKReg()} }
	off, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if off.DistinctStates != 0 {
		t.Fatalf("DistinctStates=%d on an object without the fingerprint hook, want 0", off.DistinctStates)
	}
}

// TestCancellation: a cancelled context yields partial, Interrupted
// stats with the context error — immediately when cancelled up front,
// and mid-run for a schedule count that could never finish in time.
func TestCancellation(t *testing.T) {
	cfg := okCfg()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg.Ctx = ctx
	st, err := Run(cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if st == nil || !st.Interrupted || st.Schedules != 0 {
		t.Fatalf("want empty interrupted stats, got %+v", st)
	}

	big := okCfg()
	big.Schedules = 10_000_000
	big.Workers = 4
	tctx, tcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer tcancel()
	big.Ctx = tctx
	start := time.Now()
	st, err = Run(big)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error, got %v (stats %+v)", err, st)
	}
	if st == nil || !st.Interrupted || st.Schedules >= big.Schedules {
		t.Fatalf("want partial interrupted stats, got %+v", st)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("cancellation took %v", d)
	}
	t.Logf("interrupted after %d schedules", st.Schedules)
}

// TestValidation rejects nonsensical configurations.
func TestValidation(t *testing.T) {
	for name, mut := range map[string]func(*Config){
		"schedules": func(c *Config) { c.Schedules = 0 },
		"steps":     func(c *Config) { c.Steps = 0 },
		"monitors":  func(c *Config) { c.NewMonitors = nil },
		"procs":     func(c *Config) { c.Procs = 0 },
	} {
		cfg := okCfg()
		mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

// TestWalkStrategy: the uniform walk also finds the seeded bug and is
// deterministic across engines.
func TestWalkStrategy(t *testing.T) {
	cfg := lossyCfg()
	cfg.Strategy = Walk
	st, err := Run(cfg)
	if st == nil {
		t.Fatalf("engine failure: %v", err)
	}
	if !st.Failed {
		t.Fatal("walk must find the lossy-register violation within the budget")
	}
	re := applyOnly(lossyCfg())
	re.Strategy = Walk
	rst, _ := Run(re)
	if rst == nil || !eq(st, rst) {
		t.Fatalf("walk engines diverge:\nsession %+v\nreplay  %+v", st, rst)
	}
}
