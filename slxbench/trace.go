package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/slx"
	"repro/slx/hist"
	"repro/slx/run"
)

// The traced run measures layers from outside: it wraps the property,
// the object (and its frames) and the environment a job's checker uses,
// and times every call the engine makes into them. Nothing inside the
// program is instrumented, and each wrapper forwards exactly the hooks
// the wrapped value implements, so the engine takes the same paths.

// span accumulates the calls into one layer boundary.
type span struct{ ns, calls atomic.Int64 }

func (s *span) since(t0 time.Time) {
	s.ns.Add(int64(time.Since(t0)))
	s.calls.Add(1)
}

// tracer holds one traced pass's counters. The engine calls wrappers from
// every exploration worker, so all fields are atomic.
type tracer struct {
	objStep     span // Begin plus Frame.Step, recovery frames included
	objFork     span // Frame.Fork
	objSnapshot span
	objRestore  span
	objFP       span // Fingerprint
	objCrash    span // CrashVolatile plus RecoverFrame
	objApply    atomic.Int64

	monStep    span
	monFork    span
	monDigest  span
	monRelease atomic.Int64

	envNext span

	// loops is the busy time of engine worker loops run off the calling
	// goroutine (WithExecutor offers), so parallel self time is measured
	// against all workers' time, not just the caller's.
	loops span
	wg    sync.WaitGroup
}

// layerTotals is a snapshot of the child spans, used to attribute a
// job's time between the engine and the layers it calls.
type layerTotals struct{ object, monitor, env, loops int64 }

func (t *tracer) totals() layerTotals {
	return layerTotals{
		object: t.objStep.ns.Load() + t.objFork.ns.Load() + t.objSnapshot.ns.Load() +
			t.objRestore.ns.Load() + t.objFP.ns.Load() + t.objCrash.ns.Load(),
		monitor: t.monStep.ns.Load() + t.monFork.ns.Load() + t.monDigest.ns.Load(),
		env:     t.envNext.ns.Load(),
		loops:   t.loops.ns.Load(),
	}
}

func (a layerTotals) sub(b layerTotals) layerTotals {
	return layerTotals{a.object - b.object, a.monitor - b.monitor, a.env - b.env, a.loops - b.loops}
}

// offer is the WithExecutor hook of traced checkers: it runs each extra
// engine worker loop on its own goroutine, as the default executor does,
// and records the loop's busy time.
func (t *tracer) offer(loop func()) bool {
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		t0 := time.Now()
		loop()
		t.loops.since(t0)
	}()
	return true
}

// errCaptured ends the capture adversary's Attack.
var errCaptured = errors.New("factories captured")

// capture is an slx.Adversary that only records the AttackConfig a
// checker hands it: the object and environment factories the checker's
// options configured.
type capture struct{ cfg slx.AttackConfig }

func (c *capture) Name() string { return "capture" }

func (c *capture) Attack(cfg slx.AttackConfig) (*run.Result, error) {
	c.cfg = cfg
	return nil, errCaptured
}

// factories returns the object and environment factories of a checker.
func factories(c *slx.Checker) (slx.AttackConfig, error) {
	var cp capture
	if _, err := c.Adversary(&cp); !errors.Is(err, errCaptured) {
		return slx.AttackConfig{}, err
	}
	return cp.cfg, nil
}

// tracedOptions wraps a checker's object and environment factories and
// offers its extra worker loops through the tracer.
func (t *tracer) tracedOptions(c *slx.Checker) ([]slx.Option, error) {
	cfg, err := factories(c)
	if err != nil {
		return nil, err
	}
	return []slx.Option{
		slx.WithObject(func() run.Object { return t.object(cfg.NewObject()) }),
		slx.WithEnv(func() run.Environment { return t.env(cfg.NewEnv()) }),
		slx.WithExecutor(t.offer),
	}, nil
}

// --- property and monitors ---

// tprop wraps a property so that Spawn returns a timed monitor.
type tprop struct {
	slx.Property
	t *tracer
}

func (p tprop) Spawn() slx.Monitor {
	m := p.Property.Spawn()
	if m == nil {
		return nil
	}
	return &tmon{m: m, t: p.t}
}

// tmon times a monitor. It forwards StateDigest and Release: a monitor
// without the digest hook answers (0, false), which is exactly how the
// engine treats a monitor that does not implement it.
type tmon struct {
	m slx.Monitor
	t *tracer
}

func (w *tmon) Step(e hist.Event) bool {
	t0 := time.Now()
	ok := w.m.Step(e)
	w.t.monStep.since(t0)
	return ok
}

func (w *tmon) Verdict() slx.Verdict { return w.m.Verdict() }

func (w *tmon) Fork() slx.Monitor {
	t0 := time.Now()
	f := w.m.Fork()
	w.t.monFork.since(t0)
	return &tmon{m: f, t: w.t}
}

func (w *tmon) StateDigest() (uint64, bool) {
	d, ok := w.m.(slx.Digester)
	if !ok {
		return 0, false
	}
	t0 := time.Now()
	h, ok := d.StateDigest()
	w.t.monDigest.since(t0)
	return h, ok
}

func (w *tmon) Release() {
	w.t.monRelease.Add(1)
	if r, ok := w.m.(interface{ Release() }); ok {
		r.Release()
	}
}

// --- objects and frames ---

// object wraps o. The wrapper vetoes sessions (SessionGated) unless o
// supports them, answers Footprints false unless o opts in, and recovers
// with no routine and nothing volatile unless o is Recoverable: each is
// how the engine treats an object without the hook. Fingerprintable is
// the one hook whose mere presence matters, so it gets its own type.
func (t *tracer) object(o run.Object) run.Object {
	w := &tobj{o: o, t: t, session: run.CanSnapshot(o)}
	w.rec, _ = o.(run.Recoverable)
	if fp, ok := o.(run.Fingerprintable); ok {
		return &tobjFP{tobj: w, fp: fp}
	}
	return w
}

type tobj struct {
	o       run.Object
	t       *tracer
	session bool
	rec     run.Recoverable
}

func (w *tobj) Apply(p *run.Proc, inv run.Invocation) hist.Value {
	// Apply blocks on scheduler grants, so only the count is meaningful.
	w.t.objApply.Add(1)
	return w.o.Apply(p, inv)
}

func (w *tobj) Snapshotting() bool { return w.session }

func (w *tobj) Begin(p *run.Proc, inv run.Invocation) (run.Frame, hist.Value, run.StepStatus) {
	t0 := time.Now()
	f, v, st := w.o.(run.Stepped).Begin(p, inv)
	w.t.objStep.since(t0)
	if f != nil {
		f = &tframe{f: f, t: w.t}
	}
	return f, v, st
}

func (w *tobj) Snapshot() any {
	t0 := time.Now()
	s := w.o.(run.Snapshottable).Snapshot()
	w.t.objSnapshot.since(t0)
	return s
}

func (w *tobj) Restore(s any) {
	t0 := time.Now()
	w.o.(run.Snapshottable).Restore(s)
	w.t.objRestore.since(t0)
}

func (w *tobj) Footprints() bool {
	f, ok := w.o.(run.Footprinted)
	return ok && f.Footprints()
}

func (w *tobj) CrashVolatile() {
	if w.rec == nil {
		return
	}
	t0 := time.Now()
	w.rec.CrashVolatile()
	w.t.objCrash.since(t0)
}

func (w *tobj) RecoverFrame() run.Frame {
	if w.rec == nil {
		return nil
	}
	t0 := time.Now()
	f := w.rec.RecoverFrame()
	w.t.objCrash.since(t0)
	if f == nil {
		return nil
	}
	return &tframe{f: f, t: w.t}
}

type tobjFP struct {
	*tobj
	fp run.Fingerprintable
}

func (w *tobjFP) Fingerprint(f *run.Fingerprinter) {
	t0 := time.Now()
	w.fp.Fingerprint(f)
	w.t.objFP.since(t0)
}

// tframe times a continuation frame. A frame whose Fork returns itself
// is immutable, and so is its wrapper.
type tframe struct {
	f run.Frame
	t *tracer
}

func (w *tframe) Step(p *run.Proc) (hist.Value, run.StepStatus) {
	t0 := time.Now()
	v, st := w.f.Step(p)
	w.t.objStep.since(t0)
	return v, st
}

func (w *tframe) Fork() run.Frame {
	t0 := time.Now()
	f := w.f.Fork()
	w.t.objFork.since(t0)
	if f == w.f {
		return w
	}
	return &tframe{f: f, t: w.t}
}

// --- environments ---

// env wraps e, forwarding the rewind hook when e has it.
func (t *tracer) env(e run.Environment) run.Environment {
	w := &tenv{e: e, t: t}
	if r, ok := e.(run.RewindableEnv); ok {
		return &tenvR{tenv: w, r: r}
	}
	return w
}

type tenv struct {
	e run.Environment
	t *tracer
}

func (w *tenv) Next(proc int, v *run.View) (run.Invocation, bool) {
	t0 := time.Now()
	inv, ok := w.e.Next(proc, v)
	w.t.envNext.since(t0)
	return inv, ok
}

type tenvR struct {
	*tenv
	r run.RewindableEnv
}

func (w *tenvR) EnvSnapshot() any { return w.r.EnvSnapshot() }
func (w *tenvR) EnvRestore(s any) { w.r.EnvRestore(s) }
