package sim

import (
	"fmt"
	"reflect"
	goruntime "runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/base"
	"repro/internal/history"
)

// snapObject exercises every base object kind with multi-step,
// branching operations, all in one memory whose Snapshot/Restore are
// its hooks — the round-trip fixture of the session engine.
type snapObject struct {
	base.Mem
	reg  *base.Register
	cas  *base.CAS
	tas  *base.TAS
	ctr  *base.FetchAdd
	snap *base.Snapshot
}

func newSnapObject(n int) *snapObject {
	o := &snapObject{}
	o.reg = base.NewRegister(&o.Mem, "reg", 0)
	o.cas = base.NewCAS(&o.Mem, "cas", 0)
	o.tas = base.NewTAS(&o.Mem, "tas")
	o.ctr = base.NewFetchAdd(&o.Mem, "ctr", 0)
	o.snap = base.NewSnapshot(&o.Mem, "snap", n, 0)
	return o
}

func (o *snapObject) Apply(p *Proc, inv Invocation) history.Value {
	switch inv.Op {
	case "mix":
		p.Exec("write", func() { o.reg.WriteW(p, inv.Arg) })
		var v int
		p.Exec("add", func() { v = o.ctr.AddW(p, 1) })
		var won bool
		p.Exec("tas", func() { won = o.tas.TestAndSetW(p) })
		if won {
			var old history.Value
			p.Exec("read", func() { old = o.cas.ReadW(p) })
			p.Exec("cas", func() { o.cas.CompareAndSwapW(p, old, v) })
		} else {
			p.Exec("update", func() { o.snap.UpdateW(p, p.ID()-1, v) })
		}
		var sn []history.Value
		p.Exec("scan", func() { sn = o.snap.ScanW(p, nil) })
		sum := 0
		for _, x := range sn {
			sum += x.(int)
		}
		return sum*100 + v
	case "read":
		var v history.Value
		p.Exec("read", func() { v = o.reg.ReadW(p) })
		return v
	}
	return nil
}

func (o *snapObject) Fingerprint(f *Fingerprinter) { o.Fold(f) }

// snapFrame is one in-flight snapObject operation, branching on the
// test-and-set outcome exactly as Apply does.
type snapFrame struct {
	o   *snapObject
	inv Invocation
	pc  int
	v   int
	old history.Value
}

// Begin implements Stepped.
func (o *snapObject) Begin(p *Proc, inv Invocation) (Frame, history.Value, StepStatus) {
	switch inv.Op {
	case "mix", "read":
		return &snapFrame{o: o, inv: inv}, nil, StepPaused
	}
	return nil, nil, StepDone
}

// Step implements Frame.
func (f *snapFrame) Step(p *Proc) (history.Value, StepStatus) {
	o := f.o
	if f.inv.Op == "read" {
		return o.reg.ReadW(p), StepDone
	}
	switch f.pc {
	case 0:
		o.reg.WriteW(p, f.inv.Arg)
		f.pc = 1
	case 1:
		f.v = o.ctr.AddW(p, 1)
		f.pc = 2
	case 2:
		if o.tas.TestAndSetW(p) {
			f.pc = 3
		} else {
			f.pc = 5
		}
	case 3:
		f.old = o.cas.ReadW(p)
		f.pc = 4
	case 4:
		o.cas.CompareAndSwapW(p, f.old, f.v)
		f.pc = 6
	case 5:
		o.snap.UpdateW(p, p.ID()-1, f.v)
		f.pc = 6
	case 6:
		sn := o.snap.ScanW(p, nil)
		sum := 0
		for _, x := range sn {
			sum += x.(int)
		}
		return sum*100 + f.v, StepDone
	}
	return nil, StepPaused
}

// Fork implements Frame.
func (f *snapFrame) Fork() Frame {
	c := *f
	return &c
}

// sessionCrossCheck walks the full schedule tree to the given depth
// with one persistent session (descend by Extend, backtrack by
// Restore) and, at EVERY node, compares the session's history,
// fingerprint and ready set against an independent from-root replay of
// the same prefix. The replay runs the object under ApplyOnly, so it
// executes the blocking Apply: the oracle for the session's frames.
// Its fingerprint folds every process record afresh, so comparing it
// with the session's, which reuses each record's cached word until a
// decision of that process changes it, checks the cache's invalidation.
// Mid-operation marks, pending-operation rebuilds, idle transitions and
// (optionally) crash and recover decisions are all hit.
func sessionCrossCheck(t *testing.T, procs, depth, crashes, recoveries int, newObj func() Object, newEnv func() Environment, fingerprint bool) (nodes int) {
	t.Helper()
	sess, err := NewSession(SessionConfig{Procs: procs, Object: newObj(), NewObject: newObj, NewEnv: newEnv, Fingerprint: fingerprint})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer sess.Close()

	var prefix []Decision
	var walk func(remDepth, remCrashes, remRecoveries int)
	walk = func(remDepth, remCrashes, remRecoveries int) {
		nodes++
		// Independent replay of the current prefix; a recover decision
		// may follow a node where no process is ready.
		sched := Fixed(append([]Decision(nil), prefix...))
		res := Run(Config{
			Procs: procs, Object: ApplyOnly(newObj()), Env: newEnv(),
			Scheduler: sched, MaxSteps: len(prefix) + 1, Fingerprint: fingerprint,
			RecoverQuiescent: recoveries > 0,
		})
		if res.Err != nil {
			t.Fatalf("replay of %v failed: %v", prefix, res.Err)
		}
		if !reflect.DeepEqual(res.H, sess.History()) && !(len(res.H) == 0 && len(sess.History()) == 0) {
			t.Fatalf("history diverged at %v:\nsession: %s\nreplay:  %s", prefix, sess.History(), res.H)
		}
		if fingerprint {
			sfp, sok := sess.Fingerprint()
			if sok != res.Fingerprinted || (sok && sfp != res.Fingerprint) {
				t.Fatalf("fingerprint diverged at %v: session (%x,%v), replay (%x,%v)",
					prefix, sfp, sok, res.Fingerprint, res.Fingerprinted)
			}
		}
		ready := sess.Ready()
		var replayReady []int
		notReady := map[int]bool{}
		for _, id := range res.Idle {
			notReady[id] = true
		}
		for _, id := range res.Blocked {
			notReady[id] = true
		}
		for _, id := range res.Crashed {
			notReady[id] = true
		}
		for id := 1; id <= procs; id++ {
			if !notReady[id] {
				replayReady = append(replayReady, id)
			}
		}
		sort.Ints(replayReady)
		if !reflect.DeepEqual(ready, replayReady) {
			t.Fatalf("ready diverged at %v: session %v, replay %v", prefix, ready, replayReady)
		}
		if remDepth == 0 {
			return
		}
		var children []Decision
		for _, id := range ready {
			children = append(children, Decision{Proc: id})
		}
		if remCrashes > 0 {
			for _, id := range ready {
				children = append(children, Decision{Proc: id, Crash: true})
			}
		}
		if remRecoveries > 0 {
			for _, id := range sess.CrashedAppend(nil) {
				children = append(children, Decision{Proc: id, Recover: true})
			}
		}
		if len(children) == 0 {
			return
		}
		mark := sess.Mark()
		for _, d := range children {
			if _, err := sess.Restore(mark); err != nil {
				t.Fatalf("restore at %v: %v", prefix, err)
			}
			if _, err := sess.Extend(d); err != nil {
				t.Fatalf("extend %v at %v: %v", d, prefix, err)
			}
			prefix = append(prefix, d)
			nc, nr := remCrashes, remRecoveries
			if d.Crash {
				nc--
			}
			if d.Recover {
				nr--
			}
			walk(remDepth-1, nc, nr)
			prefix = prefix[:len(prefix)-1]
		}
		if _, err := sess.Restore(mark); err != nil {
			t.Fatalf("final restore at %v: %v", prefix, err)
		}
	}
	walk(depth, crashes, recoveries)
	return nodes
}

// TestSessionMatchesReplayEverywhere is the session engine's core
// soundness check: on a Script environment over an object composing
// every base object kind, every node of the depth-7 two-process tree
// agrees with a from-root replay.
func TestSessionMatchesReplayEverywhere(t *testing.T) {
	script := map[int][]Invocation{
		1: {{Op: "mix", Arg: 10}, {Op: "read"}},
		2: {{Op: "mix", Arg: 20}, {Op: "read"}},
	}
	newObj := func() Object { return newSnapObject(2) }
	newEnv := func() Environment { return Script(script) }
	nodes := sessionCrossCheck(t, 2, 7, 0, 0, newObj, newEnv, true)
	if nodes < 100 {
		t.Errorf("cross-check visited only %d nodes; tree unexpectedly small", nodes)
	}
	t.Logf("cross-checked %d nodes", nodes)
}

// TestSessionMatchesReplayWithCrashes repeats the cross-check with
// crash decisions branching at every level (restores must rewind crash
// statuses and reinstate the crashed operations' pending frames).
func TestSessionMatchesReplayWithCrashes(t *testing.T) {
	script := map[int][]Invocation{
		1: {{Op: "mix", Arg: 1}},
		2: {{Op: "mix", Arg: 2}},
	}
	newObj := func() Object { return newSnapObject(2) }
	newEnv := func() Environment { return Script(script) }
	nodes := sessionCrossCheck(t, 2, 5, 2, 0, newObj, newEnv, true)
	t.Logf("cross-checked %d nodes", nodes)
}

// recObject is the crash–recovery fixture: a durable register that a
// put writes to its cache and then flushes, wiped to its flushed half
// at every crash, and a two-step recovery routine that reads the
// flushed value and writes it back plus ten. Recover decisions thus
// change the recovering process's record (epoch, dropped pending
// operation, recovering flag, observed value, program counter) and the
// shared state.
type recObject struct {
	base.Mem
	d *base.DurableRegister
}

func newRecObject() *recObject {
	o := &recObject{}
	o.d = base.NewDurableRegister(&o.Mem, "d", 0)
	return o
}

// Apply implements Object through the object's own frames.
func (o *recObject) Apply(p *Proc, inv Invocation) history.Value { return ApplyFrames(o, p, inv) }

func (o *recObject) Fingerprint(f *Fingerprinter) { o.Fold(f) }

// CrashVolatile implements Recoverable.
func (o *recObject) CrashVolatile() { o.Wipe() }

// RecoverFrame implements Recoverable.
func (o *recObject) RecoverFrame() Frame { return &recFrame{o: o, recovery: true} }

// Begin implements Stepped.
func (o *recObject) Begin(p *Proc, inv Invocation) (Frame, history.Value, StepStatus) {
	return &recFrame{o: o, inv: inv}, nil, StepPaused
}

// recFrame is one in-flight put, get or recovery routine.
type recFrame struct {
	o        *recObject
	inv      Invocation
	recovery bool
	pc       int
	v        history.Value
}

// Step implements Frame.
func (f *recFrame) Step(p *Proc) (history.Value, StepStatus) {
	d := f.o.d
	switch {
	case f.recovery && f.pc == 0:
		f.v, f.pc = d.ReadW(p), 1
		return nil, StepPaused
	case f.recovery:
		d.WriteW(p, f.v.(int)+10)
		return nil, StepDone
	case f.inv.Op == "put" && f.pc == 0:
		d.WriteW(p, f.inv.Arg)
		f.pc = 1
		return nil, StepPaused
	case f.inv.Op == "put":
		d.FlushW(p)
		return history.OK, StepDone
	}
	return d.ReadW(p), StepDone
}

// Fork implements Frame.
func (f *recFrame) Fork() Frame {
	c := *f
	return &c
}

// TestSessionMatchesReplayWithRecoveries repeats the cross-check with
// crash and recover decisions branching at every level over a
// Recoverable object: restores must rewind recovery epochs and
// routines, and every recover decision must refresh the recovering
// process's cached fingerprint word.
func TestSessionMatchesReplayWithRecoveries(t *testing.T) {
	script := map[int][]Invocation{
		1: {{Op: "put", Arg: 1}, {Op: "get"}},
		2: {{Op: "put", Arg: 2}, {Op: "get"}},
	}
	newObj := func() Object { return newRecObject() }
	newEnv := func() Environment { return Script(script) }
	nodes := sessionCrossCheck(t, 2, 7, 2, 2, newObj, newEnv, true)
	t.Logf("cross-checked %d nodes", nodes)
}

// viewEnv is a view-dependent environment in the style of
// mutex.AcquireReleaseLoop: the next operation depends on the process's
// own last response. It is a bare EnvironmentFunc, and the object alone
// picks its sessions' strategy.
func viewEnv() Environment {
	return EnvironmentFunc(func(proc int, v *View) (Invocation, bool) {
		proj := v.H.Project(proc)
		for i := len(proj) - 1; i >= 0; i-- {
			if proj[i].Kind == history.KindResponse {
				if proj[i].Val == "won" {
					return Invocation{Op: "release"}, true
				}
				return Invocation{Op: "try"}, true
			}
		}
		return Invocation{Op: "try"}, true
	})
}

// tasObject gives viewEnv something to react to: "try" wins or loses a
// test-and-set, "release" clears it.
type tasObject struct {
	base.Mem
	t *base.TAS
}

func newTASObject() *tasObject {
	o := &tasObject{}
	o.t = base.NewTAS(&o.Mem, "t")
	return o
}

func (o *tasObject) Apply(p *Proc, inv Invocation) history.Value {
	switch inv.Op {
	case "try":
		var won bool
		p.Exec("tas", func() { won = o.t.TestAndSetW(p) })
		if won {
			return "won"
		}
		return "lost"
	case "release":
		p.Exec("reset", func() { o.t.ResetW(p) })
		return "ok"
	}
	return nil
}

func (o *tasObject) Fingerprint(f *Fingerprinter) { o.Fold(f) }

// tasFrame is one in-flight tasObject operation: a single window.
type tasFrame struct {
	o   *tasObject
	inv Invocation
}

// Begin implements Stepped.
func (o *tasObject) Begin(p *Proc, inv Invocation) (Frame, history.Value, StepStatus) {
	switch inv.Op {
	case "try", "release":
		return &tasFrame{o: o, inv: inv}, nil, StepPaused
	}
	return nil, nil, StepDone
}

// Step implements Frame.
func (f *tasFrame) Step(p *Proc) (history.Value, StepStatus) {
	if f.inv.Op == "try" {
		if f.o.t.TestAndSetW(p) {
			return "won", StepDone
		}
		return "lost", StepDone
	}
	f.o.t.ResetW(p)
	return "ok", StepDone
}

// Fork implements Frame: the frame is immutable.
func (f *tasFrame) Fork() Frame { return f }

// TestSessionViewDependentEnv cross-checks the session against replay
// under a view-dependent environment (decisions derived from the
// process's own history projection), one instance consulted on every
// branch.
func TestSessionViewDependentEnv(t *testing.T) {
	newObj := func() Object { return newTASObject() }
	nodes := sessionCrossCheck(t, 2, 7, 0, 0, newObj, viewEnv, true)
	t.Logf("cross-checked %d nodes", nodes)
}

// TestSessionLazyArgPoisonRestored pins LazyArg semantics under both
// session strategies: a lazily resolved argument poisons the
// fingerprint of the subtree below it, and a restore above the lazy
// step lifts the poison.
func TestSessionLazyArgPoisonRestored(t *testing.T) {
	script := map[int][]Invocation{
		1: {{Op: "mix", Arg: 1}},
		2: {{Op: "mix", Arg: LazyArg(func(v *View) history.Value { return v.Steps })}},
	}
	for name, newObj := range map[string]func() Object{
		"snapshot":  func() Object { return newSnapObject(2) },
		"from-root": func() Object { return ApplyOnly(newSnapObject(2)) },
	} {
		t.Run(name, func(t *testing.T) {
			sess, err := NewSession(SessionConfig{
				Procs:       2,
				Object:      newObj(),
				NewObject:   newObj,
				NewEnv:      func() Environment { return Script(script) },
				Fingerprint: true,
			})
			if err != nil {
				t.Fatalf("NewSession: %v", err)
			}
			defer sess.Close()
			if _, ok := sess.Fingerprint(); !ok {
				t.Fatal("root must fingerprint")
			}
			mark := sess.Mark()
			if _, err := sess.Extend(Decision{Proc: 1}); err != nil {
				t.Fatalf("extend: %v", err)
			}
			if _, ok := sess.Fingerprint(); !ok {
				t.Fatal("proc 1's branch must still fingerprint")
			}
			if _, err := sess.Extend(Decision{Proc: 2}); err != nil {
				t.Fatalf("extend: %v", err)
			}
			if _, ok := sess.Fingerprint(); ok {
				t.Fatal("lazy invocation must poison the fingerprint")
			}
			if _, err := sess.Restore(mark); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if _, ok := sess.Fingerprint(); !ok {
				t.Fatal("restore above the lazy step must lift the poison")
			}
		})
	}
}

// gatedObject vetoes snapshots at runtime despite having the methods.
type gatedObject struct{ snapObject }

func (g *gatedObject) Snapshotting() bool { return false }

// TestNewSessionRejects pins the constructor contract: a session that
// would rebuild from the root — object without the hook or a
// SessionGated veto — needs NewObject, and every session needs an
// environment. The object alone picks the strategy, so a bare
// EnvironmentFunc over a snapshot-capable object needs no NewObject.
func TestNewSessionRejects(t *testing.T) {
	plain := ObjectFunc(func(p *Proc, inv Invocation) history.Value { return nil })
	env := func() Environment { return Script(nil) }
	if _, err := NewSession(SessionConfig{Procs: 1, Object: plain, NewEnv: env}); err == nil {
		t.Error("object without Snapshottable and without NewObject must be rejected")
	}
	if CanSnapshot(plain) {
		t.Error("CanSnapshot must be false without the hook")
	}
	g := &gatedObject{}
	g.snapObject = *newSnapObject(1)
	if CanSnapshot(g) {
		t.Error("CanSnapshot must honor the SessionGated veto")
	}
	if _, err := NewSession(SessionConfig{Procs: 1, Object: g, NewEnv: env}); err == nil {
		t.Error("SessionGated veto without NewObject must be rejected")
	}
	bare := func() Environment { return EnvironmentFunc(Script(nil).Next) }
	if s, err := NewSession(SessionConfig{Procs: 1, Object: newSnapObject(1), NewEnv: bare}); err != nil {
		t.Errorf("a bare EnvironmentFunc over a snapshot-capable object must not need NewObject: %v", err)
	} else {
		s.Close()
	}
	if _, err := NewSession(SessionConfig{Procs: 1, Object: newSnapObject(1)}); err == nil {
		t.Error("missing NewEnv must be rejected")
	}
	if !CanSnapshot(newSnapObject(1)) {
		t.Error("CanSnapshot must be true for the hook-bearing object")
	}
	if CanSnapshot(ApplyOnly(newSnapObject(1))) {
		t.Error("ApplyOnly must hide the snapshot hook")
	}
	s, err := NewSession(SessionConfig{Procs: 1, Object: plain, NewObject: func() Object { return plain }, NewEnv: env})
	if err != nil {
		t.Fatalf("from-root session with NewObject rejected: %v", err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Extend(Decision{Proc: 1}); err == nil {
		t.Error("Extend after Close must fail")
	}
}

// TestSessionFromRootMatchesReplay runs the cross-check, crash branching
// included, over every way a session ends up rebuilding from the root:
// an Apply-only object, a SessionGated veto, and the ApplyOnly wrapper
// of a snapshot-capable object.
func TestSessionFromRootMatchesReplay(t *testing.T) {
	script := map[int][]Invocation{
		1: {{Op: "mix", Arg: 1}, {Op: "read"}},
		2: {{Op: "mix", Arg: 2}},
	}
	newEnv := func() Environment { return Script(script) }
	for _, tc := range []struct {
		name   string
		newObj func() Object
	}{
		{"apply-only", func() Object { return ObjectFunc(newSnapObject(2).Apply) }},
		{"gated", func() Object { return &gatedObject{snapObject: *newSnapObject(2)} }},
		{"ApplyOnly", func() Object { return ApplyOnly(newSnapObject(2)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes := sessionCrossCheck(t, 2, 6, 2, 0, tc.newObj, newEnv, true)
			t.Logf("cross-checked %d nodes", nodes)
		})
	}
}

// settledGoroutines waits briefly for exiting goroutines (an unwound
// Apply call is counted until its goroutine returns) and reports the
// count once it is at most limit, or the last count seen.
func settledGoroutines(limit int) int {
	n := goruntime.NumGoroutine()
	for i := 0; i < 200 && n > limit; i++ {
		time.Sleep(5 * time.Millisecond)
		n = goruntime.NumGoroutine()
	}
	return n
}

// TestSessionFromRootGoroutines pins the blocking-Apply adapter's
// goroutine hygiene under the from-root strategy: a call parks on its
// own goroutine between windows, a rebuild unwinds the previous
// runtime's parked calls, so the session never holds more than Procs
// of them; a recover unwinds the recovered process's parked call; and
// Close leaves none behind.
func TestSessionFromRootGoroutines(t *testing.T) {
	const procs = 3
	script := map[int][]Invocation{
		1: {{Op: "mix", Arg: 1}},
		2: {{Op: "mix", Arg: 2}},
		3: {{Op: "mix", Arg: 3}},
	}
	base := goruntime.NumGoroutine()
	newObj := func() Object { return ApplyOnly(newSnapObject(procs)) }
	sess, err := NewSession(SessionConfig{
		Procs: procs, Object: newObj(), NewObject: newObj,
		NewEnv: func() Environment { return Script(script) },
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	root := sess.Mark()
	rebuilds, peak := 0, base
	var walk func(depth int)
	walk = func(depth int) {
		n := settledGoroutines(base + procs)
		if n > base+procs {
			t.Fatalf("%d goroutines after %d rebuilds, want at most %d", n, rebuilds, base+procs)
		}
		peak = max(peak, n)
		ready := sess.Ready()
		if depth == 0 || len(ready) == 0 {
			return
		}
		m := sess.Mark()
		for _, id := range ready {
			n, err := sess.Restore(m)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if n > 0 {
				rebuilds++
			}
			if _, err := sess.Extend(Decision{Proc: id}); err != nil {
				t.Fatalf("extend: %v", err)
			}
			walk(depth - 1)
		}
	}
	walk(5)
	if rebuilds == 0 {
		t.Fatal("the walk never rebuilt")
	}
	if peak == base {
		t.Fatal("the walk never had a blocking Apply call in flight")
	}

	// Process 1 parks mid-Apply, crashes and recovers: the recover
	// discards its operation, unwinding the parked call.
	if _, err := sess.Restore(root); err != nil {
		t.Fatalf("restore to root: %v", err)
	}
	for _, d := range []Decision{{Proc: 1}, {Proc: 1}, {Proc: 1, Crash: true}, {Proc: 1, Recover: true}} {
		if _, err := sess.Extend(d); err != nil {
			t.Fatalf("extend %v: %v", d, err)
		}
	}
	if n := settledGoroutines(base); n > base {
		t.Errorf("%d goroutines after recovering a process parked mid-Apply, want the baseline %d", n, base)
	}

	// Close unwinds the calls still parked.
	for _, d := range []Decision{{Proc: 2}, {Proc: 3}} {
		if _, err := sess.Extend(d); err != nil {
			t.Fatalf("extend %v: %v", d, err)
		}
	}
	sess.Close()
	if n := settledGoroutines(base); n > base {
		t.Errorf("%d goroutines after Close, want the baseline %d", n, base)
	}
}

// TestSessionExtendValidation pins Extend's decision validation (the
// sim.Run StopError cases) and that the session survives rejected
// decisions.
func TestSessionExtendValidation(t *testing.T) {
	script := map[int][]Invocation{1: {{Op: "mix", Arg: 1}}}
	sess, err := NewSession(SessionConfig{
		Procs:  2,
		Object: newSnapObject(2),
		NewEnv: func() Environment { return Script(script) },
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer sess.Close()
	if _, err := sess.Extend(Decision{Proc: 3}); err == nil {
		t.Error("out-of-range process must be rejected")
	}
	if _, err := sess.Extend(Decision{Proc: 2}); err == nil {
		t.Error("stepping the idle process must be rejected")
	}
	if _, err := sess.Extend(Decision{Proc: 2, Crash: true}); err != nil {
		t.Errorf("crashing the idle process is allowed by sim.Run, got %v", err)
	}
	if _, err := sess.Extend(Decision{Proc: 2, Crash: true}); err == nil {
		t.Error("double crash must be rejected")
	}
	if _, err := sess.Extend(Decision{Proc: 1}); err != nil {
		t.Errorf("valid step rejected: %v", err)
	}
}

// forkCounter is snapObject with frames that count their forks.
type forkCounter struct {
	*snapObject
	forks int
}

// Begin implements Stepped.
func (o *forkCounter) Begin(p *Proc, inv Invocation) (Frame, history.Value, StepStatus) {
	f, v, st := o.snapObject.Begin(p, inv)
	if f != nil {
		f = &countedFrame{f: f.(*snapFrame), o: o}
	}
	return f, v, st
}

// countedFrame is a snapFrame that counts its forks on its object.
type countedFrame struct {
	f *snapFrame
	o *forkCounter
}

// Step implements Frame.
func (f *countedFrame) Step(p *Proc) (history.Value, StepStatus) { return f.f.Step(p) }

// Fork implements Frame.
func (f *countedFrame) Fork() Frame {
	f.o.forks++
	return &countedFrame{f: f.f.Fork().(*snapFrame), o: f.o}
}

// TestSessionForksFramesOnWrite pins the copy-on-write frames: Mark and
// Restore fork no frame, a process's first step after either forks its
// frame once and its later steps fork none, stepping the live process
// leaves the mark's frame as it was, and a mark restored twice, with
// another child stepped in between, continues identically both times.
func TestSessionForksFramesOnWrite(t *testing.T) {
	script := map[int][]Invocation{
		1: {{Op: "mix", Arg: 1}},
		2: {{Op: "mix", Arg: 2}},
	}
	o := &forkCounter{snapObject: newSnapObject(2)}
	sess, err := NewSession(SessionConfig{Procs: 2, Object: o, NewEnv: func() Environment { return Script(script) }, Fingerprint: true})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer sess.Close()
	// step extends process id and reports the step and the fingerprint
	// it reached, checking that it forked want frames.
	step := func(id, want int) string {
		t.Helper()
		before := o.forks
		info, err := sess.Extend(Decision{Proc: id})
		if err != nil {
			t.Fatalf("extend %d: %v", id, err)
		}
		if got := o.forks - before; got != want {
			t.Fatalf("step of process %d forked %d frames, want %d", id, got, want)
		}
		fp, ok := sess.Fingerprint()
		return fmt.Sprint(info, fp, ok)
	}
	state := func() string {
		fp, ok := sess.Fingerprint()
		return fmt.Sprint(sess.History(), sess.Steps(), fp, ok)
	}
	restore := func(m *Mark) {
		t.Helper()
		before := o.forks
		if _, err := sess.Restore(m); err != nil {
			t.Fatalf("restore: %v", err)
		}
		if o.forks != before {
			t.Fatalf("Restore forked %d frames, want none", o.forks-before)
		}
	}

	// Both processes invoke and process 1 takes a step: frames fresh
	// from Begin are not shared with any mark.
	step(1, 0)
	step(2, 0)
	step(1, 0)
	m := sess.Mark()
	if o.forks != 0 {
		t.Fatalf("Mark forked %d frames, want none", o.forks)
	}
	at := state()
	pc := m.procs[0].frame.(*countedFrame).f.pc
	step(1, 1)
	step(1, 0)
	step(1, 0)
	if got := m.procs[0].frame.(*countedFrame).f.pc; got != pc {
		t.Fatalf("stepping the live process moved the mark's frame from pc %d to %d", pc, got)
	}

	restore(m)
	if got := state(); got != at {
		t.Fatalf("first restore reached %s, want %s", got, at)
	}
	first := []string{step(1, 1), step(1, 0), step(2, 1), step(2, 0)}
	restore(m)
	step(2, 1)
	step(2, 0)
	restore(m)
	if got := state(); got != at {
		t.Fatalf("second restore reached %s, want %s", got, at)
	}
	second := []string{step(1, 1), step(1, 0), step(2, 1), step(2, 0)}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("the mark continued differently when restored again:\n first  %v\n second %v", first, second)
	}
}
