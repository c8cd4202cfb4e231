package slx_test

// Cross-checks of sleep-set partial-order reduction through the public
// API: for every example object, Explore with WithPOR must return the
// identical verdict as full exploration — on clean objects and on
// seeded-bug objects alike — and a POR witness must replay to a real
// violation.

import (
	"testing"

	"repro/internal/queue"
	"repro/internal/service"
	"repro/internal/snapshot"
	"repro/slx"
	"repro/slx/check"
	"repro/slx/consensus"
	"repro/slx/hist"
	"repro/slx/mutex"
	"repro/slx/run"
	"repro/slx/tm"
)

// porRegister is a linearizable register with declared footprints,
// observations, a state fingerprint, snapshots and a frame machine (the
// reference pattern for hand-rolled session-capable objects: Begin/Step
// are the object, and Apply is derived from them with run.ApplyFrames).
type porRegister struct{ v hist.Value }

func (r *porRegister) Apply(p *run.Proc, inv run.Invocation) hist.Value {
	return run.ApplyFrames(r, p, inv)
}

func (r *porRegister) Footprints() bool { return true }

func (r *porRegister) Fingerprint(f *run.Fingerprinter) { f.Str("r"); f.Val(r.v) }

func (r *porRegister) Snapshot() any { return r.v }

func (r *porRegister) Restore(s any) { r.v = s }

// porRegisterFrame is one in-flight porRegister operation: one window.
type porRegisterFrame struct {
	r   *porRegister
	inv run.Invocation
}

// Begin implements run.Stepped.
func (r *porRegister) Begin(p *run.Proc, inv run.Invocation) (run.Frame, hist.Value, run.StepStatus) {
	switch inv.Op {
	case "read", "write":
		return &porRegisterFrame{r: r, inv: inv}, nil, run.StepPaused
	}
	return nil, nil, run.StepDone
}

// Step implements run.Frame.
func (f *porRegisterFrame) Step(p *run.Proc) (hist.Value, run.StepStatus) {
	if f.inv.Op == "read" {
		p.Access("r", false)
		out := f.r.v
		p.Observe(out)
		return out, run.StepDone
	}
	p.Access("r", true)
	f.r.v = f.inv.Arg
	return hist.OK, run.StepDone
}

// Fork implements run.Frame: the frame is immutable.
func (f *porRegisterFrame) Fork() run.Frame { return f }

// lossyRegister is a seeded bug: process 2's writes acknowledge without
// taking effect, so its write-then-read is not linearizable.
type lossyRegister struct{ v hist.Value }

func (r *lossyRegister) Apply(p *run.Proc, inv run.Invocation) hist.Value {
	var out hist.Value
	switch inv.Op {
	case "read":
		p.Exec("read", func() {
			p.Access("r", false)
			out = r.v
			p.Observe(out)
		})
	case "write":
		p.Exec("write", func() {
			out = hist.OK
			p.Access("r", true)
			if p.ID() != 2 {
				r.v = inv.Arg
			}
		})
	}
	return out
}

func (r *lossyRegister) Footprints() bool { return true }

func (r *lossyRegister) Fingerprint(f *run.Fingerprinter) { f.Str("r"); f.Val(r.v) }

func (r *lossyRegister) Snapshot() any { return r.v }

func (r *lossyRegister) Restore(s any) { r.v = s }

// lossyRegisterFrame is one in-flight lossyRegister operation.
type lossyRegisterFrame struct {
	r   *lossyRegister
	inv run.Invocation
}

// Begin implements run.Stepped.
func (r *lossyRegister) Begin(p *run.Proc, inv run.Invocation) (run.Frame, hist.Value, run.StepStatus) {
	switch inv.Op {
	case "read", "write":
		return &lossyRegisterFrame{r: r, inv: inv}, nil, run.StepPaused
	}
	return nil, nil, run.StepDone
}

// Step implements run.Frame.
func (f *lossyRegisterFrame) Step(p *run.Proc) (hist.Value, run.StepStatus) {
	r := f.r
	if f.inv.Op == "read" {
		p.Access("r", false)
		out := r.v
		p.Observe(out)
		return out, run.StepDone
	}
	p.Access("r", true)
	if p.ID() != 2 {
		r.v = f.inv.Arg
	}
	return hist.OK, run.StepDone
}

// Fork implements run.Frame: the frame is immutable.
func (f *lossyRegisterFrame) Fork() run.Frame { return f }

// racyLock is a seeded deep bug: test and set are separate register
// steps, so mutual exclusion breaks only on the interleavings where both
// processes read the lock free before either takes it — violations that
// live exclusively in racy branches a wrong reduction might prune.
type racyLock struct{ held bool }

func (l *racyLock) Apply(p *run.Proc, inv run.Invocation) hist.Value {
	switch inv.Op {
	case mutex.OpAcquire:
		for {
			var free bool
			p.Exec("test", func() {
				p.Access("lock", false)
				free = !l.held
				p.Observe(free)
			})
			if free {
				p.Exec("set", func() {
					p.Access("lock", true)
					l.held = true
				})
				return mutex.Locked
			}
		}
	case mutex.OpRelease:
		p.Exec("clear", func() {
			p.Access("lock", true)
			l.held = false
		})
		return mutex.Unlocked
	}
	return nil
}

func (l *racyLock) Footprints() bool { return true }

func (l *racyLock) Fingerprint(f *run.Fingerprinter) { f.Str("lock"); f.Bool(l.held) }

func (l *racyLock) Snapshot() any { return l.held }

func (l *racyLock) Restore(s any) { l.held = s.(bool) }

// racyLockFrame is one in-flight racyLock operation: test/set rounds for
// acquire (free records a successful test, making set the next step),
// one clear for release.
type racyLockFrame struct {
	l    *racyLock
	op   string
	free bool
}

// Begin implements run.Stepped.
func (l *racyLock) Begin(p *run.Proc, inv run.Invocation) (run.Frame, hist.Value, run.StepStatus) {
	switch inv.Op {
	case mutex.OpAcquire, mutex.OpRelease:
		return &racyLockFrame{l: l, op: inv.Op}, nil, run.StepPaused
	}
	return nil, nil, run.StepDone
}

// Step implements run.Frame.
func (f *racyLockFrame) Step(p *run.Proc) (hist.Value, run.StepStatus) {
	l := f.l
	if f.op == mutex.OpRelease {
		p.Access("lock", true)
		l.held = false
		return mutex.Unlocked, run.StepDone
	}
	if !f.free {
		p.Access("lock", false)
		free := !l.held
		p.Observe(free)
		f.free = free
		return nil, run.StepPaused
	}
	p.Access("lock", true)
	l.held = true
	return mutex.Locked, run.StepDone
}

// Fork implements run.Frame.
func (f *racyLockFrame) Fork() run.Frame {
	c := *f
	return &c
}

// regEnv writes a distinct value per process, then reads.
func regEnv(procs int) func() run.Environment {
	return func() run.Environment {
		script := map[int][]run.Invocation{}
		for p := 1; p <= procs; p++ {
			script[p] = []run.Invocation{{Op: "write", Arg: p}, {Op: "read"}}
		}
		return run.Script(script)
	}
}

// queueEnv has process 1 enqueue once and process 2 dequeue twice.
func queueEnv() run.Environment {
	return run.Script(map[int][]run.Invocation{
		1: {{Op: "enq", Arg: "a"}},
		2: {{Op: "deq"}, {Op: "deq"}},
	})
}

// targetOptions returns a registered service target's options followed
// by overrides, so the cross-checks run exactly the object slxd serves.
func targetOptions(name string, overrides ...slx.Option) []slx.Option {
	t, ok := service.LookupTarget(name)
	if !ok {
		panic(name + " target not registered")
	}
	return append(t.Options(), overrides...)
}

// porCases is the example-object table of the cross-check.
func porCases() map[string]struct {
	opts  []slx.Option
	props []slx.Property
} {
	return map[string]struct {
		opts  []slx.Option
		props []slx.Property
	}{
		"register/linearizability": {
			opts: []slx.Option{
				slx.WithObject(func() run.Object { return &porRegister{v: 0} }),
				slx.WithEnv(regEnv(3)),
				slx.WithProcs(3),
				slx.WithDepth(7),
			},
			props: []slx.Property{check.Linearizability(check.RegisterSpec{Initial: 0})},
		},
		"lossy-register/violation": {
			opts: []slx.Option{
				slx.WithObject(func() run.Object { return &lossyRegister{v: 0} }),
				slx.WithEnv(regEnv(2)),
				slx.WithProcs(2),
				slx.WithDepth(8),
			},
			props: []slx.Property{check.Linearizability(check.RegisterSpec{Initial: 0})},
		},
		"racy-lock/violation": {
			opts: []slx.Option{
				slx.WithObject(func() run.Object { return &racyLock{} }),
				slx.WithEnv(func() run.Environment { return mutex.AcquireReleaseLoop(2) }),
				slx.WithProcs(2),
				slx.WithDepth(9),
			},
			props: []slx.Property{check.MutualExclusion()},
		},
		"commit-adopt/agreement": {
			opts: []slx.Option{
				slx.WithObject(func() run.Object { return consensus.NewCommitAdoptOF(2) }),
				slx.WithEnv(func() run.Environment {
					return consensus.ProposeOnce(map[int]hist.Value{1: 0, 2: 1})
				}),
				slx.WithProcs(2),
				slx.WithDepth(9),
			},
			props: []slx.Property{check.AgreementValidity()},
		},
		"commit-adopt/crashes+workers": {
			opts: []slx.Option{
				slx.WithObject(func() run.Object { return consensus.NewCommitAdoptOF(2) }),
				slx.WithEnv(func() run.Environment {
					return consensus.ProposeOnce(map[int]hist.Value{1: 0, 2: 1})
				}),
				slx.WithProcs(2),
				slx.WithDepth(7),
				slx.WithCrashes(1),
				slx.WithWorkers(4),
			},
			props: []slx.Property{check.AgreementValidity()},
		},
		"cas-consensus/agreement": {
			opts: []slx.Option{
				slx.WithObject(func() run.Object { return consensus.NewCASBased() }),
				slx.WithEnv(func() run.Environment {
					return consensus.ProposeOnce(map[int]hist.Value{1: 0, 2: 1})
				}),
				slx.WithProcs(2),
				slx.WithDepth(8),
			},
			props: []slx.Property{check.AgreementValidity()},
		},
		"peterson/mutual-exclusion": {
			opts: []slx.Option{
				slx.WithObject(func() run.Object { return mutex.NewPeterson() }),
				slx.WithEnv(func() run.Environment { return mutex.AcquireReleaseLoop(2) }),
				slx.WithProcs(2),
				slx.WithDepth(8),
			},
			props: []slx.Property{check.MutualExclusion()},
		},
		"i12/property-s": {
			opts: []slx.Option{
				slx.WithObject(func() run.Object { return tm.NewI12(2) }),
				slx.WithEnv(func() run.Environment {
					return tm.TxnLoop(map[int]tm.Txn{
						1: {Accesses: []tm.Access{{Write: true, Var: "x", Val: 1}}},
						2: {Accesses: []tm.Access{{Var: "x"}}},
					})
				}),
				slx.WithProcs(2),
				slx.WithDepth(9),
			},
			props: []slx.Property{check.PropertyS()},
		},
		"i12-sw/property-s": {
			// Algorithm 1 over the software snapshot from registers: the
			// snapshot's multi-step update and scan frames run as
			// sub-frames of I12's, forked and restored with them.
			opts: []slx.Option{
				slx.WithObject(func() run.Object { return tm.NewI12WithSnapshot(2, snapshot.New("R", 2, 0)) }),
				slx.WithEnv(func() run.Environment {
					return tm.TxnLoop(map[int]tm.Txn{
						1: {Accesses: []tm.Access{{Write: true, Var: "x", Val: 1}}},
						2: {Accesses: []tm.Access{{Var: "x"}}},
					})
				}),
				slx.WithProcs(2),
				slx.WithDepth(12),
			},
			props: []slx.Property{check.PropertyS()},
		},
		"locked-queue/linearizability": {
			opts: []slx.Option{
				slx.WithObject(func() run.Object { return queue.NewLocked() }),
				slx.WithEnv(queueEnv),
				slx.WithProcs(2),
				slx.WithDepth(12),
			},
			props: []slx.Property{check.Linearizability(check.QueueSpec{})},
		},
		"cas-queue/linearizability": {
			opts: []slx.Option{
				slx.WithObject(func() run.Object { return queue.NewCASQueue() }),
				slx.WithEnv(queueEnv),
				slx.WithProcs(2),
				slx.WithDepth(12),
			},
			props: []slx.Property{check.Linearizability(check.QueueSpec{})},
		},
		"tas-lock/mutual-exclusion": {
			opts: []slx.Option{
				slx.WithObject(func() run.Object { return mutex.NewTASLock() }),
				slx.WithEnv(func() run.Environment { return mutex.AcquireReleaseLoop(2) }),
				slx.WithProcs(2),
				slx.WithDepth(8),
			},
			props: []slx.Property{check.MutualExclusion()},
		},
		"lossyreg-target/violation": {
			opts:  targetOptions("lossyreg", slx.WithDepth(8)),
			props: []slx.Property{check.Linearizability(check.RegisterSpec{Initial: 0})},
		},
		"queueblast-target/violation": {
			// Two processes instead of eight: process 1's fourth enqueue
			// evicts the first, and process 2's dequeue observes the loss.
			opts: targetOptions("queueblast",
				slx.WithProcs(2),
				slx.WithEnv(func() run.Environment {
					return run.Script(map[int][]run.Invocation{
						1: {{Op: "enq", Arg: "v1"}, {Op: "enq", Arg: "v2"}, {Op: "enq", Arg: "v3"}, {Op: "enq", Arg: "v4"}},
						2: {{Op: "deq"}},
					})
				}),
				slx.WithDepth(14),
			),
			props: []slx.Property{check.Linearizability(check.QueueSpec{})},
		},
		"dstm/opacity": {
			// slxbench's dstm:xy/yx job: process 1 reads x and writes y,
			// process 2 reads y and writes x.
			opts: []slx.Option{
				slx.WithObject(func() run.Object { return tm.NewDSTM(2) }),
				slx.WithEnv(func() run.Environment {
					return tm.TxnLoop(map[int]tm.Txn{
						1: {Accesses: []tm.Access{{Var: "x"}, {Write: true, Var: "y", Val: 11}}},
						2: {Accesses: []tm.Access{{Var: "y"}, {Write: true, Var: "x", Val: 21}}},
					})
				}),
				slx.WithProcs(2),
				slx.WithDepth(6),
			},
			props: []slx.Property{check.Opacity()},
		},
		"bakery/mutual-exclusion": {
			opts: []slx.Option{
				slx.WithObject(func() run.Object { return mutex.NewBakery(2) }),
				slx.WithEnv(func() run.Environment { return mutex.AcquireReleaseLoop(2) }),
				slx.WithProcs(2),
				slx.WithDepth(8),
			},
			props: []slx.Property{check.MutualExclusion()},
		},
		"tournament/mutual-exclusion": {
			opts: []slx.Option{
				slx.WithObject(func() run.Object { return mutex.NewTournament(3) }),
				slx.WithEnv(func() run.Environment { return mutex.AcquireReleaseLoop(3) }),
				slx.WithProcs(3),
				slx.WithDepth(6),
			},
			props: []slx.Property{check.MutualExclusion()},
		},
		"decide-own/k-set": {
			opts: []slx.Option{
				slx.WithObject(func() run.Object { return consensus.NewDecideOwn(3) }),
				slx.WithEnv(func() run.Environment {
					return consensus.ProposeOnce(map[int]hist.Value{1: 1, 2: 2, 3: 3})
				}),
				slx.WithProcs(3),
				slx.WithDepth(6),
			},
			props: []slx.Property{check.KSetAgreement(3)},
		},
		"first-announced/violation": {
			// Three distinct decisions need every process to invoke,
			// announce and scan before the next one announces: nine
			// steps.
			opts: []slx.Option{
				slx.WithObject(func() run.Object { return consensus.NewFirstAnnounced(3) }),
				slx.WithEnv(func() run.Environment {
					return consensus.ProposeOnce(map[int]hist.Value{1: 1, 2: 2, 3: 3})
				}),
				slx.WithProcs(3),
				slx.WithDepth(9),
			},
			props: []slx.Property{check.KSetAgreement(2)},
		},
		"globalcas/opacity": {
			opts: []slx.Option{
				slx.WithObject(func() run.Object { return tm.NewGlobalCAS(2) }),
				slx.WithEnv(func() run.Environment {
					return tm.TxnLoop(map[int]tm.Txn{
						1: {Accesses: []tm.Access{{Write: true, Var: "x", Val: 1}}},
						2: {Accesses: []tm.Access{{Write: true, Var: "x", Val: 2}}},
					})
				}),
				slx.WithProcs(2),
				slx.WithDepth(9),
			},
			props: []slx.Property{check.Opacity()},
		},
	}
}

// TestExplorePORVerdictsMatch is the public-API acceptance gate: for
// every example object the Explore verdicts with and without WithPOR are
// identical, per property, violating objects included.
func TestExplorePORVerdictsMatch(t *testing.T) {
	for name, tc := range porCases() {
		tc := tc
		t.Run(name, func(t *testing.T) {
			full, err := slx.New(tc.opts...).Explore(tc.props...)
			if err != nil {
				t.Fatalf("full explore: %v", err)
			}
			por, err := slx.New(append(tc.opts[:len(tc.opts):len(tc.opts)], slx.WithPOR())...).Explore(tc.props...)
			if err != nil {
				t.Fatalf("POR explore: %v", err)
			}
			if full.OK() != por.OK() {
				t.Fatalf("verdicts differ: full OK=%v, POR OK=%v\nfull: %s\npor: %s",
					full.OK(), por.OK(), full, por)
			}
			if !full.OK() {
				fv, pv := full.Failures()[0], por.Failures()[0]
				if fv.Property != pv.Property {
					t.Errorf("different properties failed: full %q, POR %q", fv.Property, pv.Property)
				}
				if pv.Witness == nil {
					t.Error("POR failure carries no witness")
				}
			}
			if full.Pruned != 0 {
				t.Errorf("full exploration pruned %d subtrees, want 0", full.Pruned)
			}
			if por.Prefixes > full.Prefixes {
				t.Errorf("POR explored more prefixes (%d) than full exploration (%d)", por.Prefixes, full.Prefixes)
			}
			t.Logf("prefixes full=%d por=%d pruned=%d ok=%v", full.Prefixes, por.Prefixes, por.Pruned, full.OK())
		})
	}
}

// TestExplorePORWitnessReplays checks a POR witness reproduces its
// violation through Checker.Replay.
func TestExplorePORWitnessReplays(t *testing.T) {
	tc := porCases()["racy-lock/violation"]
	prop := tc.props[0]
	rep, err := slx.New(append(tc.opts, slx.WithPOR())...).Explore(prop)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if rep.OK() {
		t.Fatal("racy lock must violate mutual exclusion")
	}
	replay, err := slx.New(tc.opts...).Replay(rep.Witness(), prop)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if replay.OK() {
		t.Errorf("witness %v replayed clean:\n%s", rep.Witness(), replay)
	}
}
