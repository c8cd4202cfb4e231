// Package service implements the slxd exploration service: a daemon
// that accepts check jobs over HTTP/JSON, runs them on a bounded worker
// pool where each worker drives an ordinary slx.Checker, and keeps the
// resulting reports in a results store. Sharding happens underneath the
// public API — engine worker loops are offered to the shared pool via
// slx.WithExecutor — so a job's report is identical to the in-process
// report by construction: same verdicts, same witness schedules, same
// deterministic counters.
package service

import (
	"fmt"
	"sort"
	"strings"

	"repro/slx"
	"repro/slx/check"
	"repro/slx/consensus"
	"repro/slx/hist"
	"repro/slx/run"
	"repro/slx/tm"
)

// Target is one named check target: the object, environment and process
// count to explore, plus the property to check. A job names a target;
// the registry supplies the code halves of the checker that the job's
// Spec cannot carry over JSON.
type Target struct {
	// Name is the registry key, as it appears in a JobSpec.
	Name string
	// About is the one-line description shown in listings.
	About string
	// Procs is the process count the target's objects and scripts are
	// built for. A job may leave procs unset or repeat it; JobChecker
	// rejects any other count.
	Procs int
	// Options builds the target's object, environment and process-count
	// options.
	Options func() []slx.Option
	// Property builds the property to check. Called per job: monitors
	// are stateful, so targets must not share property instances.
	Property func() slx.Property
}

// targets is the registry. cmd/slx explore and the slxd daemon both
// resolve target names here, so the CLI and the service cannot drift.
var targets = map[string]Target{
	"consensus": target("consensus", "commit-adopt consensus, agreement+validity", 2,
		func() run.Object { return consensus.NewCommitAdoptOF(2) },
		func() run.Environment {
			return consensus.ProposeOnce(map[int]hist.Value{1: 0, 2: 1})
		},
		func() slx.Property { return check.AgreementValidity() }),
	"i12": target("i12", "TM implementation I_12, property S", 2,
		func() run.Object { return tm.NewI12(2) }, tmEnv,
		func() slx.Property { return check.PropertyS() }),
	"globalcas": target("globalcas", "global-CAS TM, opacity", 2,
		func() run.Object { return tm.NewGlobalCAS(2) }, tmEnv,
		func() slx.Property { return check.Opacity() }),
	"lossyreg": target("lossyreg", "seeded-bug register (process 2's writes are lost), linearizability", 2,
		func() run.Object { return &lossyRegister{v: 0} },
		func() run.Environment {
			return run.Script(map[int][]run.Invocation{
				1: {{Op: "write", Arg: 1}, {Op: "read"}},
				2: {{Op: "write", Arg: 2}, {Op: "read"}},
			})
		},
		func() slx.Property {
			return check.Linearizability(check.RegisterSpec{Initial: 0})
		}),
	"durablequeue": target("durablequeue", "seeded recovery bug: roll-forward queue duplicates a crashed enqueue (explore with crashes+recoveries)", 2,
		func() run.Object { return newDurQueue(2) },
		func() run.Environment {
			return run.Script(map[int][]run.Invocation{
				1: {{Op: "enq", Arg: "a"}},
				2: {{Op: "deq"}, {Op: "deq"}},
			})
		},
		func() slx.Property {
			return check.StrictLinearizability(check.QueueSpec{})
		}),
	"queueblast": target("queueblast", "seeded deep-bug evicting queue, 8 procs, linearizability", 8,
		func() run.Object { return &blastQueue{} },
		func() run.Environment {
			script := map[int][]run.Invocation{}
			for p := 1; p <= 4; p++ {
				script[p] = []run.Invocation{{Op: "enq", Arg: fmt.Sprintf("v%d", p)}}
			}
			for p := 5; p <= 8; p++ {
				script[p] = []run.Invocation{{Op: "deq"}, {Op: "deq"}}
			}
			return run.Script(script)
		},
		func() slx.Property {
			return check.Linearizability(check.QueueSpec{})
		}),
}

// target builds a registry entry whose object and environment are built
// for procs processes: the count is recorded once, as the entry's Procs
// and its WithProcs option.
func target(name, about string, procs int, newObj func() run.Object, newEnv func() run.Environment, prop func() slx.Property) Target {
	return Target{
		Name:  name,
		About: about,
		Procs: procs,
		Options: func() []slx.Option {
			return []slx.Option{slx.WithProcs(procs), slx.WithObject(newObj), slx.WithEnv(newEnv)}
		},
		Property: prop,
	}
}

// tmEnv is the shared environment of the two TM targets: each process
// loops a single-write transaction on the same variable.
func tmEnv() run.Environment {
	return tm.TxnLoop(map[int]tm.Txn{
		1: {Accesses: []tm.Access{{Write: true, Var: "x", Val: 1}}},
		2: {Accesses: []tm.Access{{Write: true, Var: "x", Val: 2}}},
	})
}

// LookupTarget resolves a registered target by name.
func LookupTarget(name string) (Target, bool) {
	t, ok := targets[name]
	return t, ok
}

// JobChecker builds a job's checker and property: the target's options,
// then the spec's, then extra. cmd/slx explore and slxd both build jobs
// here, so they reject the same specs with the same text. A positive
// procs must be the target's count, since every target builds its
// objects and scripts for a fixed number of processes; a negative one
// is left to ValidateExplore.
func JobChecker(spec JobSpec, extra ...slx.Option) (*slx.Checker, slx.Property, error) {
	t, err := resolveTarget(spec)
	if err != nil {
		return nil, nil, err
	}
	opts := append(t.Options(), spec.Options()...)
	return slx.New(append(opts, extra...)...), t.Property(), nil
}

// resolveTarget returns the target spec names, or JobChecker's error
// for a spec naming no target or another process count.
func resolveTarget(spec JobSpec) (Target, error) {
	t, ok := LookupTarget(spec.Target)
	if !ok {
		return Target{}, fmt.Errorf("unknown target %q (targets: %s)", spec.Target, strings.Join(TargetNames(), ", "))
	}
	if spec.Procs > 0 && spec.Procs != t.Procs {
		return Target{}, fmt.Errorf("procs: target %q is built for %d processes, got %d", t.Name, t.Procs, spec.Procs)
	}
	return t, nil
}

// TargetNames lists the registered targets in sorted order.
func TargetNames() []string {
	names := make([]string, 0, len(targets))
	for n := range targets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// lossyRegister is the seeded-bug register target: process 2's writes
// acknowledge without taking effect, so its write-then-read history is
// not linearizable. Both exhaustive explore (depth 8) and sampling find
// it, exercising the violation paths end to end.
//
//slx:norecover the seeded bug is crash-free; the register is modeled durable
type lossyRegister struct{ v hist.Value }

// Apply implements run.Object.
func (r *lossyRegister) Apply(p *run.Proc, inv run.Invocation) hist.Value {
	return run.ApplyFrames(r, p, inv)
}

// lossyFrame is one in-flight lossyRegister operation: a single access
// window. The frame is immutable, so Fork returns the receiver.
type lossyFrame struct {
	r   *lossyRegister
	inv run.Invocation
}

// Begin implements run.Stepped. Unknown operations perform no access and
// complete in the invocation window.
func (r *lossyRegister) Begin(p *run.Proc, inv run.Invocation) (run.Frame, hist.Value, run.StepStatus) {
	switch inv.Op {
	case "read", "write":
		return &lossyFrame{r: r, inv: inv}, nil, run.StepPaused
	}
	return nil, nil, run.StepDone
}

// Step implements run.Frame.
func (f *lossyFrame) Step(p *run.Proc) (hist.Value, run.StepStatus) {
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

// Fork implements run.Frame.
func (f *lossyFrame) Fork() run.Frame { return f }

func (r *lossyRegister) Footprints() bool { return true }

func (r *lossyRegister) Fingerprint(f *run.Fingerprinter) { f.Str("r"); f.Val(r.v) }

func (r *lossyRegister) Snapshot() any { return r.v }

func (r *lossyRegister) Restore(s any) { r.v = s }

// blastCapacity is the buffer bound past which blastQueue drops its
// head.
const blastCapacity = 3

// blastQueue is the deep-bug queue examples/queueblast explores: a
// bounded FIFO whose enqueue silently evicts the oldest element once
// three items are buffered. Enqueue takes two granted steps (reserve, then
// publish), so the minimal violating schedule needs four completed
// enqueues plus an observing dequeue — exhaustive exploration below
// depth 8 is provably clean while the bug is alive, which makes this
// the service's sampling showcase target.
//
//slx:norecover the blast scenario is crash-free; all state is modeled durable
type blastQueue struct{ items []hist.Value }

// Apply implements run.Object.
func (q *blastQueue) Apply(p *run.Proc, inv run.Invocation) hist.Value {
	return run.ApplyFrames(q, p, inv)
}

// blastFrame is one in-flight blastQueue operation: reserve+publish for
// enq, a single window for deq.
type blastFrame struct {
	q   *blastQueue
	inv run.Invocation
	pc  int
}

// Begin implements run.Stepped.
func (q *blastQueue) Begin(p *run.Proc, inv run.Invocation) (run.Frame, hist.Value, run.StepStatus) {
	switch inv.Op {
	case "enq", "deq":
		return &blastFrame{q: q, inv: inv}, nil, run.StepPaused
	}
	return nil, nil, run.StepDone
}

// Step implements run.Frame.
func (f *blastFrame) Step(p *run.Proc) (hist.Value, run.StepStatus) {
	q := f.q
	if f.inv.Op == "enq" {
		if f.pc == 0 { // reserve
			p.Access("q", true)
			f.pc = 1
			return nil, run.StepPaused
		}
		// publish
		p.Access("q", true)
		q.items = append(q.items, f.inv.Arg)
		if len(q.items) > blastCapacity {
			// The seeded bug: silently evict the oldest element.
			q.items = q.items[1:]
		}
		return hist.OK, run.StepDone
	}
	p.Access("q", true)
	var out hist.Value
	if len(q.items) == 0 {
		out = "empty"
	} else {
		out = q.items[0]
		q.items = q.items[1:]
	}
	p.Observe(out)
	return out, run.StepDone
}

// Fork implements run.Frame.
func (f *blastFrame) Fork() run.Frame {
	c := *f
	return &c
}

func (q *blastQueue) Footprints() bool { return true }

func (q *blastQueue) Fingerprint(f *run.Fingerprinter) {
	f.Str("q")
	f.Int(len(q.items))
	for _, v := range q.items {
		f.Val(v)
	}
}

func (q *blastQueue) Snapshot() any { return append([]hist.Value(nil), q.items...) }

func (q *blastQueue) Restore(s any) { q.items = append(q.items[:0:0], s.([]hist.Value)...) }

// durQueue is the recovery-bug queue examples/durablequeue explores:
// every enqueue is journaled in a per-process redo log (write intent, flush,
// apply, clear, flush the clear), but the recovery routine rolls the
// log forward UNCONDITIONALLY — it never checks whether the crashed
// enqueue already took effect. The protocol is correct crash-free and
// correct under crashes alone (a crashed process never replays its
// log); the duplicate needs a crash between the apply and the final
// clear flush plus a recovery, where strict linearizability flags the
// twice-delivered element. This is the service's crash–recovery
// showcase target: explore it with crashes>=1 and recoveries>=1.
type durQueue struct {
	items  []hist.Value // committed queue (durable)
	logVol []*durRec    // per-proc redo log, volatile cache (1-based)
	logDur []*durRec    // per-proc redo log, durable cell (1-based)
}

// durRec is one redo-log record, immutable once written.
type durRec struct{ arg hist.Value }

func newDurQueue(n int) *durQueue {
	return &durQueue{logVol: make([]*durRec, n+1), logDur: make([]*durRec, n+1)}
}

// durLogName is the footprint label of proc p's redo log.
func durLogName(p int) string { return fmt.Sprintf("log.%d", p) }

// deq is the shared single-window dequeue body.
func (q *durQueue) deq(p *run.Proc) hist.Value {
	p.Access("q", true)
	var out hist.Value
	if len(q.items) == 0 {
		out = "empty"
	} else {
		out = q.items[0]
		q.items = q.items[1:]
	}
	p.Observe(out)
	return out
}

// Apply implements run.Object.
func (q *durQueue) Apply(p *run.Proc, inv run.Invocation) hist.Value {
	return run.ApplyFrames(q, p, inv)
}

// durFrame is one in-flight durQueue operation. pc (enq): 0 = write
// log, 1 = flush log, 2 = apply, 3 = clear log, 4 = flush the clear;
// deq is a single window.
type durFrame struct {
	q   *durQueue
	inv run.Invocation
	pc  int
}

// Begin implements run.Stepped.
func (q *durQueue) Begin(p *run.Proc, inv run.Invocation) (run.Frame, hist.Value, run.StepStatus) {
	switch inv.Op {
	case "enq", "deq":
		return &durFrame{q: q, inv: inv}, nil, run.StepPaused
	}
	return nil, nil, run.StepDone
}

// Step implements run.Frame.
func (f *durFrame) Step(p *run.Proc) (hist.Value, run.StepStatus) {
	q := f.q
	if f.inv.Op == "deq" {
		return q.deq(p), run.StepDone
	}
	id := p.ID()
	switch f.pc {
	case 0:
		p.Access(durLogName(id), true)
		q.logVol[id] = &durRec{arg: f.inv.Arg}
	case 1:
		p.Access(durLogName(id), true)
		q.logDur[id] = q.logVol[id]
	case 2:
		p.Access("q", true)
		q.items = append(q.items, f.inv.Arg)
	case 3:
		p.Access(durLogName(id), true)
		q.logVol[id] = nil
	case 4:
		p.Access(durLogName(id), true)
		q.logDur[id] = nil
		return hist.OK, run.StepDone
	}
	f.pc++
	return nil, run.StepPaused
}

// Fork implements run.Frame.
func (f *durFrame) Fork() run.Frame {
	c := *f
	return &c
}

func (q *durQueue) Footprints() bool { return true }

// CrashVolatile implements run.Recoverable: every log cache reverts to
// its durable cell; the committed queue survives.
func (q *durQueue) CrashVolatile() { copy(q.logVol, q.logDur) }

// RecoverFrame implements run.Recoverable.
func (q *durQueue) RecoverFrame() run.Frame { return &durRecovery{q: q} }

// durRecovery is the recovery routine: read the durable log and roll it
// forward. pc: 0 = read log (done if empty), 1 = re-apply, 2 = clear
// log, 3 = flush the clear.
type durRecovery struct {
	q   *durQueue
	pc  int
	rec *durRec
}

// Step implements run.Frame.
func (f *durRecovery) Step(p *run.Proc) (hist.Value, run.StepStatus) {
	q := f.q
	id := p.ID()
	switch f.pc {
	case 0:
		p.Access(durLogName(id), false)
		if q.logVol[id] == nil {
			return nil, run.StepDone
		}
		f.rec = q.logVol[id]
	case 1:
		// The seeded bug: an unconditional roll-forward re-applies an
		// enqueue that already took effect before the crash (a crash
		// after pc 2, before pc 4). The correct protocol guards the redo
		// with the intent's pre-state (internal/queue.Persistent).
		p.Access("q", true)
		q.items = append(q.items, f.rec.arg)
	case 2:
		p.Access(durLogName(id), true)
		q.logVol[id] = nil
	case 3:
		p.Access(durLogName(id), true)
		q.logDur[id] = nil
		return nil, run.StepDone
	}
	f.pc++
	return nil, run.StepPaused
}

// Fork implements run.Frame.
func (f *durRecovery) Fork() run.Frame {
	c := *f
	return &c
}

func (q *durQueue) Fingerprint(f *run.Fingerprinter) {
	f.Str("dq")
	f.Int(len(q.items))
	for _, v := range q.items {
		f.Val(v)
	}
	for p := 1; p < len(q.logVol); p++ {
		for _, r := range [2]*durRec{q.logVol[p], q.logDur[p]} {
			if r == nil {
				f.Int(0)
			} else {
				f.Int(1)
				f.Val(r.arg)
			}
		}
	}
}

// durState is a captured configuration (log records are immutable, so
// the slices copy shallowly).
type durState struct {
	items  []hist.Value
	logVol []*durRec
	logDur []*durRec
}

func (q *durQueue) Snapshot() any {
	return durState{
		items:  append([]hist.Value(nil), q.items...),
		logVol: append([]*durRec(nil), q.logVol...),
		logDur: append([]*durRec(nil), q.logDur...),
	}
}

func (q *durQueue) Restore(s any) {
	st := s.(durState)
	q.items = append(q.items[:0:0], st.items...)
	copy(q.logVol, st.logVol)
	copy(q.logDur, st.logDur)
}
