// Package sim implements the asynchronous shared-memory system of the
// paper's Section 2 as a deterministic, scheduler-driven simulator.
//
// Run executes each of the n processes as a goroutine. Before every
// atomic step — an invocation or a base-object operation — the process
// blocks until the scheduler grants it a step; the scheduler therefore
// plays exactly the role of the paper's external scheduler ("an
// external entity ... over which processes have no control"). Because
// grants are serialized by the runtime, a run is fully determined by
// the schedule (the sequence of scheduler decisions) for deterministic
// algorithms and environments, which makes replay and adversarial
// probing possible: a configuration is represented by the schedule
// prefix that produced it.
//
// Session is the executor the exploration engines drive: a live
// configuration extended one decision at a time and rewound to marks.
// Its snapshot strategy executes the same model without goroutines:
// objects implementing Stepped run each operation as an explicit
// continuation state machine (one resumable step closure per grant)
// driven by a direct dispatch loop, which makes snapshot/restore a
// plain struct copy and the exploration hot loop allocation-free. Its
// from-root strategy runs Apply on the goroutine runtime Run uses and
// rebuilds on restore. Run and the from-root strategy remain the
// parity oracle for the continuation runtime.
//
// The runtime records the external history (invocations, responses, crash
// events) exactly as defined in internal/history, along with per-event step
// indices used by the bounded liveness checkers.
package sim

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/history"
)

// DefaultMaxSteps bounds a run when Config.MaxSteps is zero.
const DefaultMaxSteps = 10000

// Sentinel panics used internally to unwind process goroutines. They are
// recovered by the runtime; algorithm code must never recover them.
var (
	errHalted  = errors.New("sim: process halted (run ended or crashed)")
	errBlocked = errors.New("sim: process blocked forever by implementation")
)

// Invocation describes an operation a process invokes on the object under
// test.
type Invocation struct {
	// Op is the operation name (e.g. "propose", "start", "read").
	Op string
	// Obj optionally names the addressed object/variable.
	Obj string
	// Arg is the invocation argument, nil if none. It may be a LazyArg.
	Arg history.Value
}

// LazyArg is an invocation argument resolved at the moment the invocation
// is scheduled (not when the environment chooses the operation). The
// paper's TM adversary needs this: process p1's Step-3 write argument is
// v”+1, where v” is a value p2 reads after p1's operation was chosen.
type LazyArg func(v *View) history.Value

// Object is a shared-object implementation under test (the paper's
// implementation I = {I_1, ..., I_n}).
//
// Apply executes one operation on behalf of process p, performing every
// atomic shared-memory access through p (one call to p.Exec per base-object
// step), and returns the response value. Apply must not block on anything
// other than p.Exec, and must not spawn goroutines that touch shared state.
type Object interface {
	Apply(p *Proc, inv Invocation) history.Value
}

// ObjectFunc adapts a function to Object.
type ObjectFunc func(p *Proc, inv Invocation) history.Value

// Apply implements Object.
func (f ObjectFunc) Apply(p *Proc, inv Invocation) history.Value { return f(p, inv) }

// Footprinted is the opt-in footprint hook for partial-order reduction:
// an Object implementing it (with Footprints returning true) promises
// that every access Apply makes to state shared between processes is
// performed through base objects that declare the access to the
// executing process (internal/base objects do this automatically via
// Proc.Access), and that any other cross-process state it keeps is
// footprint-neutral (e.g. deterministic lazy allocation whose outcome
// does not depend on which process performs it). The runtime then
// records a per-decision access log in Result.Accesses, which
// exploration uses to commute independent steps. Objects without the
// hook degrade to an unknown footprint on every step: every step
// conflicts with every other and exploration prunes nothing.
type Footprinted interface {
	Object
	// Footprints reports whether the access log should be trusted.
	Footprints() bool
}

// Access is the recorded footprint of one scheduler decision: which base
// object the granted step touched and how, plus the step's visibility
// (which history events it recorded). Exploration derives step
// independence from it.
type Access struct {
	// Obj names the base object the step accessed; "" when the step
	// performed no base-object access. Two base objects of one
	// implementation instance must not share a name if they are to be
	// treated as independent (a shared name is sound — it only makes the
	// steps conflict).
	Obj string
	// Write reports whether the access mutated the object.
	Write bool
	// Known reports whether the footprint is trustworthy. False means the
	// step's effect is unknown and it must be treated as conflicting with
	// everything (undeclared accesses, conflicting declarations, lazy
	// arguments resolved against the scheduling-time view).
	Known bool
	// Invoked and Responded report whether the step recorded an
	// invocation / response event (crash and recover decisions record
	// their own events and are marked with Crash / Recover instead).
	Invoked, Responded bool
	// Crash marks the access-log entry of a crash decision.
	Crash bool
	// Recover marks the access-log entry of a recover decision.
	Recover bool
}

// Conflicts reports whether two accesses touch the same base object with
// at least one write, or either footprint is unknown.
func (a Access) Conflicts(b Access) bool {
	if !a.Known || !b.Known {
		return true
	}
	return a.Obj != "" && a.Obj == b.Obj && (a.Write || b.Write)
}

// Environment decides which operations processes invoke, playing the
// adversary's role of choosing inputs. Next is called within the granted
// step of the invoking process and must be deterministic for replay.
// Returning ok=false parks the process forever (it has no further work).
type Environment interface {
	Next(proc int, v *View) (inv Invocation, ok bool)
}

// Decision is one scheduler choice: grant a step to Proc, crash it, or
// recover it after a crash.
type Decision struct {
	Proc    int
	Crash   bool
	Recover bool
}

// String renders the decision compactly ("3", "crash(3)" or
// "recover(3)").
func (d Decision) String() string {
	switch {
	case d.Crash:
		return fmt.Sprintf("crash(%d)", d.Proc)
	case d.Recover:
		return fmt.Sprintf("recover(%d)", d.Proc)
	}
	return fmt.Sprintf("%d", d.Proc)
}

// Scheduler picks the next decision given the current view. Returning
// ok=false ends the run. Next must only name processes in v.Ready (for
// steps), non-crashed processes (for crashes), or crashed processes
// (for recoveries).
type Scheduler interface {
	Next(v *View) (d Decision, ok bool)
}

// View is a read-only snapshot of the run passed to schedulers and
// environments. Callers must not mutate any field.
type View struct {
	// H is the external history so far.
	H history.History
	// Steps is the number of granted steps so far.
	Steps int
	// Ready lists processes currently waiting for a step grant, sorted.
	Ready []int
	// Idle lists processes that finished all their work, sorted.
	Idle []int
	// Blocked lists processes parked forever by the implementation, sorted.
	Blocked []int
	// Crashed lists crashed processes, sorted.
	Crashed []int
	// StepsBy[i] is the number of steps granted to process i; index 0 is
	// unused (processes are 1-based).
	StepsBy []int
}

// ReadyContains reports whether proc is ready.
func (v *View) ReadyContains(proc int) bool {
	for _, p := range v.Ready {
		if p == proc {
			return true
		}
	}
	return false
}

// StopReason says why a run ended.
type StopReason int

// Stop reasons.
const (
	// StopBudget: the step budget was exhausted.
	StopBudget StopReason = iota + 1
	// StopScheduler: the scheduler returned ok=false.
	StopScheduler
	// StopQuiescent: no process is ready (all idle, blocked or crashed).
	StopQuiescent
	// StopError: the scheduler made an invalid decision.
	StopError
)

// String names the stop reason.
func (s StopReason) String() string {
	switch s {
	case StopBudget:
		return "budget"
	case StopScheduler:
		return "scheduler"
	case StopQuiescent:
		return "quiescent"
	case StopError:
		return "error"
	default:
		return fmt.Sprintf("StopReason(%d)", int(s))
	}
}

// Result is the outcome of a run.
type Result struct {
	// H is the recorded external history.
	H history.History
	// EventSteps[i] is the step index (value of Steps) at which H[i] was
	// recorded.
	EventSteps []int
	// Schedule is the full sequence of decisions taken, enabling replay.
	Schedule []Decision
	// Steps is the total number of granted steps.
	Steps int
	// StepsBy[i] counts steps granted to process i (index 0 unused).
	StepsBy []int
	// Reason says why the run stopped.
	Reason StopReason
	// Err is non-nil when Reason is StopError.
	Err error
	// Idle lists processes that ran out of work; Blocked lists processes
	// parked forever by the implementation; Crashed lists crashed
	// processes (all as of the end of the run, sorted). Processes in none
	// of the three were still ready.
	Idle, Blocked, Crashed []int
	// Accesses is the per-decision access log, aligned with Schedule. It
	// is recorded only when the Object implements Footprinted and opts
	// in; nil otherwise.
	Accesses []Access
	// Fingerprint is the canonical digest of the configuration the run
	// stopped in: object state (via the Fingerprintable hook), process
	// program counters and observations, pending invocations, and the
	// crash set. Valid only when Fingerprinted is true — the run was
	// configured with Config.Fingerprint, the object implements
	// Fingerprintable, and nothing poisoned the run: no lazy argument (a
	// LazyArg resolves against the scheduling-time view, making local
	// state depend on more than the reached configuration) and no folded
	// value whose printed form could contain an address (see
	// Fingerprinter.Val).
	Fingerprint uint64
	// Fingerprinted reports whether Fingerprint is valid.
	Fingerprinted bool
}

// Config describes a run.
type Config struct {
	// Procs is the number of processes n (1-based ids 1..n).
	Procs int
	// Object is the implementation under test. It must be fresh (runs
	// mutate it).
	Object Object
	// Env decides invocations.
	Env Environment
	// Scheduler decides the interleaving.
	Scheduler Scheduler
	// MaxSteps bounds the run; 0 means DefaultMaxSteps.
	MaxSteps int
	// Fingerprint asks the run to compute Result.Fingerprint when the
	// Object implements Fingerprintable. Off by default: fingerprinting
	// costs a full state walk per run, which exploration only wants when
	// its state cache is enabled.
	Fingerprint bool
	// RecoverQuiescent keeps the run alive when no process is ready but
	// some process is crashed: the scheduler is still consulted (with an
	// empty Ready set) and may issue a recover decision. Off by default,
	// a configuration with no ready process is quiescent and the run
	// stops — the right behavior for every run without recovery
	// injection, where a crashed process can never step again.
	RecoverQuiescent bool
}

type procStatus int

const (
	statusReady procStatus = iota + 1
	statusIdle
	statusBlocked
	statusCrashed
)

// Proc is the per-process handle passed to Object.Apply. It implements
// base.Stepper.
type Proc struct {
	id int
	n  int
	rt *runtime

	grant chan struct{}
	sync  chan procStatus
	dead  chan struct{}
	// halt is per-process so a recover decision can unwind one process's
	// goroutine without disturbing the others.
	halt chan struct{}
}

// ID returns the 1-based process identifier.
func (p *Proc) ID() int { return p.id }

// N returns the total number of processes in the system.
func (p *Proc) N() int { return p.n }

// Exec performs op as one atomic step: it blocks until the scheduler grants
// this process a step, then runs op. desc describes the step for tracing.
// Exec only exists under the goroutine runtime (sim.Run and from-root
// sessions); snapshot sessions dispatch Stepped frames directly and
// never block, so an object stepping through Exec inside one is a
// contract violation.
func (p *Proc) Exec(desc string, op func()) {
	_ = desc
	if p.rt.direct {
		panic("sim: Proc.Exec called inside a continuation session; Stepped objects must perform accesses in Begin/Step windows")
	}
	p.yield(statusReady)
	p.awaitGrant()
	op()
}

// Access declares the base-object footprint of the current granted step:
// the step read (write=false) or mutated (write=true) the base object
// named obj. Base objects (internal/base) call it on behalf of their
// operations; an implementation whose Apply touches shared state through
// its own steps must declare them itself to participate in footprint
// tracking (see Footprinted). Access must only be called within a
// granted step's window; it is a no-op when the run's object has not
// opted into tracking.
func (p *Proc) Access(obj string, write bool) {
	r := p.rt
	if !r.track {
		return
	}
	if r.declCount > 0 && r.declObj != obj {
		r.declMixed = true
	}
	r.declObj = obj
	r.declWrite = r.declWrite || write
	r.declCount++
}

// Observe folds v — a value the current granted step read from shared
// state — into the executing process's local-state fingerprint. Base
// objects (internal/base) call it on behalf of their read operations;
// an implementation opting into Fingerprintable whose steps read shared
// state through its own accesses must declare the values itself (see
// that interface). Observe must only be called within a granted step's
// window; it is a no-op when the run does not fingerprint.
func (p *Proc) Observe(v history.Value) {
	r := p.rt
	if !r.fpTrack {
		return
	}
	// r.fpEnc is reused across calls (windows are serialized, so no two
	// Observes race) to keep its encoding buffer warm on this hot path.
	r.fpEnc.h = r.fpObs[p.id]
	r.fpEnc.poisoned = false
	r.fpEnc.Val(v)
	if r.fpEnc.Poisoned() {
		r.fpPoisoned = true
		return
	}
	r.fpObs[p.id] = r.fpEnc.Sum()
}

// Block parks the process forever: the current operation never completes
// and the process never takes another step. It models implementations whose
// automata stop enabling actions (e.g. the trivial implementation I_t in
// the proof of Theorem 4.9). Block does not return.
func (p *Proc) Block() {
	panic(errBlocked)
}

func (p *Proc) yield(st procStatus) {
	p.sync <- st
}

func (p *Proc) awaitGrant() {
	select {
	case <-p.grant:
	case <-p.halt:
		panic(errHalted)
	}
}

type runtime struct {
	cfg   Config
	env   Environment
	procs []*Proc // index 0 unused

	h          history.History
	eventSteps []int
	steps      int
	stepsBy    []int
	schedule   []Decision   // decisions applied (goroutine runtime only)
	status     []procStatus // index 0 unused

	// Footprint tracking (only when the object opts in via Footprinted).
	// The decl* fields accumulate the declarations of the current granted
	// window; lazyStep poisons a window that resolved a LazyArg, whose
	// effect depends on the scheduling-time view.
	track     bool
	accesses  []Access
	declObj   string
	declWrite bool
	declCount int
	declMixed bool
	lazyStep  bool

	// Control-state tracking (ctl): the per-process pending invocation,
	// steps taken within the pending operation, completed-operation and
	// invoked-operation counts, index 0 unused. Fingerprinting needs it
	// to encode program counters; sessions need it to rebuild processes
	// on Restore. The invoked count exists for recovery: an operation
	// killed by a crash consumed an environment invocation without ever
	// completing, and stateless environments derive their position from
	// invocation counts, so the fingerprint must separate configurations
	// that differ only in consumed-but-never-completed invocations.
	ctl         bool
	fpPending   []Invocation
	fpHasPend   []bool
	fpOpSteps   []int
	fpCompleted []int
	fpInvoked   []int

	// Crash–recovery state: recObj is the object's Recoverable facet
	// (nil when not implemented), recEpochs counts recover decisions per
	// process, and recovering marks processes currently executing their
	// recovery routine. The two arrays stay nil until the first recover
	// decision, so crash-free runs pay nothing for them.
	recObj     Recoverable
	recEpochs  []int
	recovering []bool

	// State-fingerprint tracking (only when Config.Fingerprint is set and
	// the object opts in via Fingerprintable): the running observation
	// digest of each process's pending operation. fpPoisoned marks a run
	// whose local state depends on a scheduling-time view (LazyArg),
	// which no configuration fingerprint can capture.
	fpTrack    bool
	fpObs      []uint64
	fpPoisoned bool
	fpEnc      Fingerprinter // reused by Observe for its encoding buffer

	// lastAccess is the footprint of the most recent decision (zero when
	// the object does not track footprints).
	lastAccess Access

	// Continuation state (only under a snapshot Session). The session
	// dispatches Stepped frames directly: frames holds each process's
	// in-flight operation continuation (nil between operations),
	// next/hasNext the invocation the environment chose but the process
	// has not yet invoked, and envCalls the total number of environment
	// consultations made (so Restore knows whether the environment needs
	// rewinding). vw is the reusable view handed to environments and
	// LazyArgs: it is valid only for the duration of the call.
	direct   bool
	stepped  Stepped
	frames   []Frame      // index 0 unused
	next     []Invocation // index 0 unused
	hasNext  []bool       // index 0 unused
	envCalls int
	vw       View
}

// beginWindow resets the per-window footprint accumulators.
func (r *runtime) beginWindow() {
	r.declObj = ""
	r.declWrite = false
	r.declCount = 0
	r.declMixed = false
	r.lazyStep = false
}

// endWindow converts the window's declarations and the events it
// recorded (those at history index evBefore or later) into an Access.
func (r *runtime) endWindow(evBefore int) Access {
	a := Access{Known: !r.declMixed && !r.lazyStep}
	if r.declCount > 0 {
		a.Obj = r.declObj
		a.Write = r.declWrite
	}
	for _, e := range r.h[evBefore:] {
		switch e.Kind {
		case history.KindInvoke:
			a.Invoked = true
		case history.KindResponse:
			a.Responded = true
		}
	}
	return a
}

// record appends an external event to the history. Under sim.Run it is
// called from process goroutines strictly within their granted windows,
// so accesses are serialized with the runtime loop by the grant/sync
// channel handshake; under a Session it is called by the dispatch loop.
func (r *runtime) record(e history.Event) {
	r.h = append(r.h, e)
	r.eventSteps = append(r.eventSteps, r.steps)
	if r.ctl {
		switch e.Kind {
		case history.KindInvoke:
			r.fpPending[e.Proc] = Invocation{Op: e.Op, Obj: e.Obj, Arg: e.Arg}
			r.fpHasPend[e.Proc] = true
			r.fpInvoked[e.Proc]++
		case history.KindResponse:
			// The operation is over: its local variables are dead, so the
			// observation digest and in-operation step counter reset.
			r.fpHasPend[e.Proc] = false
			r.fpCompleted[e.Proc]++
			r.fpOpSteps[e.Proc] = 0
			if r.fpTrack {
				r.fpObs[e.Proc] = history.DigestSeed()
			}
		}
	}
}

func (r *runtime) view() *View {
	v := &View{
		H:       r.h[:len(r.h):len(r.h)],
		Steps:   r.steps,
		StepsBy: append([]int(nil), r.stepsBy...),
	}
	for id := 1; id <= r.cfg.Procs; id++ {
		switch r.status[id] {
		case statusReady:
			v.Ready = append(v.Ready, id)
		case statusIdle:
			v.Idle = append(v.Idle, id)
		case statusBlocked:
			v.Blocked = append(v.Blocked, id)
		case statusCrashed:
			v.Crashed = append(v.Crashed, id)
		}
	}
	sort.Ints(v.Ready)
	return v
}

func (r *runtime) procLoop(p *Proc) { r.procLoopFrom(p, nil) }

// procLoopFrom is procLoop with an optional recovery routine to drive
// first: a recovered process's goroutine steps the recovery frame under
// granted windows (one Step per grant, like an operation frame, but
// recording no response on completion), then re-enters the normal
// environment loop.
func (r *runtime) procLoopFrom(p *Proc, rec Frame) {
	normal := false
	defer func() {
		v := recover()
		switch {
		case v == nil && normal:
			// Idle exit: the final yield already happened.
		case v == errHalted: //nolint:errorlint // sentinel identity is intended
			// Shutdown while blocked; the runtime is not waiting on sync.
		case v == errBlocked: //nolint:errorlint // sentinel identity is intended
			p.yield(statusBlocked)
		default:
			// Real panic from algorithm code: surface it.
			close(p.dead)
			panic(v)
		}
		close(p.dead)
	}()

	for rec != nil {
		var st StepStatus
		p.Exec("recover", func() {
			_, st = rec.Step(p)
		})
		switch st {
		case StepPaused:
		case StepBlocked:
			panic(errBlocked)
		default: // StepDone: the routine is over, no response is recorded.
			rec = nil
			r.recoveryDone(p.id)
		}
	}

	for {
		// Consult the environment at the end of the previous window (or at
		// startup, before the initial yield): a process with no further
		// work is idle, not ready, matching the paper's fairness notion
		// that only enabled actions demand turns.
		inv, ok := r.envNext(p)
		if !ok {
			p.yield(statusIdle)
			normal = true
			return
		}
		// The grant of this step is what schedules the invocation event.
		// Lazy arguments resolve here, against the view at scheduling time.
		p.Exec("invoke", func() {
			if la, lazy := inv.Arg.(LazyArg); lazy {
				inv.Arg = la(r.view())
				r.lazyStep = true
				r.fpPoisoned = true
			}
			r.record(history.Event{
				Kind: history.KindInvoke, Proc: p.id,
				Op: inv.Op, Obj: inv.Obj, Arg: inv.Arg,
			})
		})
		val := r.cfg.Object.Apply(p, inv)
		r.record(history.Event{
			Kind: history.KindResponse, Proc: p.id,
			Op: inv.Op, Obj: inv.Obj, Val: val,
		})
	}
}

// envNext consults the environment for a process's next invocation
// (goroutine runtime only; sessions consult via their dispatch loop).
func (r *runtime) envNext(p *Proc) (Invocation, bool) {
	return r.env.Next(p.id, r.view())
}

// newRuntime builds the shared runtime core of Run and Session.
func newRuntime(cfg Config, env Environment) *runtime {
	r := &runtime{
		cfg:     cfg,
		env:     env,
		procs:   make([]*Proc, cfg.Procs+1),
		stepsBy: make([]int, cfg.Procs+1),
		status:  make([]procStatus, cfg.Procs+1),
	}
	if f, ok := cfg.Object.(Footprinted); ok && f.Footprints() {
		r.track = true
	}
	r.recObj, _ = cfg.Object.(Recoverable)
	if _, ok := cfg.Object.(Fingerprintable); ok && cfg.Fingerprint {
		r.fpTrack = true
		r.fpObs = make([]uint64, cfg.Procs+1)
		for i := range r.fpObs {
			r.fpObs[i] = history.DigestSeed()
		}
	}
	return r
}

// enableCtl switches on control-state tracking (pending invocations,
// per-operation step counts, completed-operation counts).
func (r *runtime) enableCtl() {
	r.ctl = true
	r.fpPending = make([]Invocation, r.cfg.Procs+1)
	r.fpHasPend = make([]bool, r.cfg.Procs+1)
	r.fpOpSteps = make([]int, r.cfg.Procs+1)
	r.fpCompleted = make([]int, r.cfg.Procs+1)
	r.fpInvoked = make([]int, r.cfg.Procs+1)
}

// noteRecover bumps a process's recovery epoch, lazily allocating the
// recovery-tracking arrays on the first recover decision.
func (r *runtime) noteRecover(id int) {
	if r.recEpochs == nil {
		r.recEpochs = make([]int, r.cfg.Procs+1)
		r.recovering = make([]bool, r.cfg.Procs+1)
	}
	r.recEpochs[id]++
}

// recoveryDone marks the end of a process's recovery routine: the
// routine's step counter and observation digest die with it, so the
// next operation starts from clean in-operation state.
func (r *runtime) recoveryDone(id int) {
	if r.recovering != nil {
		r.recovering[id] = false
	}
	if r.ctl {
		r.fpOpSteps[id] = 0
	}
	if r.fpTrack {
		r.fpObs[id] = history.DigestSeed()
	}
}

// spawn starts process id's goroutine and waits for its initial yield,
// so readiness transitions stay deterministic.
func (r *runtime) spawn(id int) { r.respawn(id, nil) }

// respawn starts process id's goroutine, optionally with a recovery
// routine to drive first, and waits for its initial yield. A previous
// goroutine of the process (parked after a crash) is unwound first.
func (r *runtime) respawn(id int, rec Frame) {
	if old := r.procs[id]; old != nil {
		close(old.halt)
		<-old.dead
	}
	p := &Proc{
		id: id, n: r.cfg.Procs, rt: r,
		grant: make(chan struct{}),
		sync:  make(chan procStatus),
		dead:  make(chan struct{}),
		halt:  make(chan struct{}),
	}
	r.procs[id] = p
	go r.procLoopFrom(p, rec)
	r.status[id] = <-p.sync // initial yield before first invocation
}

// startRuntime builds a goroutine runtime over cfg.Object and env and
// spawns its processes: the starting configuration of sim.Run and of a
// from-root Session.
func startRuntime(cfg Config, env Environment) *runtime {
	r := newRuntime(cfg, env)
	if r.fpTrack {
		r.enableCtl()
	}
	// Start processes one at a time so initial readiness is deterministic.
	for id := 1; id <= cfg.Procs; id++ {
		r.spawn(id)
	}
	return r
}

// applyDecision validates and executes one scheduler decision on either
// runtime: the granted window is a goroutine handoff under sim.Run and
// a from-root Session, and a direct call into the object's continuation
// frames under a snapshot Session. The returned error corresponds to
// sim.Run's StopError cases; the caller must have checked its own budget
// and that some process is ready. On success r.lastAccess holds the
// decision's footprint (zero when the object does not track footprints).
func (r *runtime) applyDecision(d Decision) error {
	id := d.Proc
	if id < 1 || id > r.cfg.Procs {
		return fmt.Errorf("sim: scheduler chose invalid process %d", id)
	}
	if d.Crash && d.Recover {
		return fmt.Errorf("sim: decision cannot both crash and recover process %d", id)
	}
	var a Access
	switch {
	case d.Crash:
		if r.status[id] == statusCrashed {
			return fmt.Errorf("sim: scheduler crashed process %d twice", id)
		}
		// The crashed process keeps its pending invocation (and, under a
		// snapshot Session, its frame): they are part of the
		// configuration (fingerprints include the pending operations of
		// crashed processes), they just never run — unless a later recover
		// decision discards them.
		r.record(history.Crash(id))
		r.status[id] = statusCrashed
		if r.recObj != nil {
			r.recObj.CrashVolatile()
		}
		a = Access{Known: true, Crash: true}
	case d.Recover:
		if r.status[id] != statusCrashed {
			return fmt.Errorf("sim: scheduler recovered non-crashed process %d", id)
		}
		r.record(history.Recover(id))
		r.noteRecover(id)
		if r.ctl {
			r.fpPending[id] = Invocation{}
			r.fpHasPend[id] = false
			r.fpOpSteps[id] = 0
		}
		if r.fpTrack {
			r.fpObs[id] = history.DigestSeed()
		}
		var rec Frame
		if r.recObj != nil {
			rec = r.recObj.RecoverFrame()
		}
		// Set unconditionally: the process may have crashed during a
		// previous recovery routine, leaving the flag true.
		r.recovering[id] = rec != nil
		if r.direct {
			r.recoverDirect(id, rec)
		} else {
			// Re-spawn the process fresh: recovery routine first (if any),
			// then the environment loop. Its pending invocation never
			// responds.
			r.respawn(id, rec)
		}
		a = Access{Known: true, Recover: true}
	default:
		if r.status[id] != statusReady {
			return fmt.Errorf("sim: scheduler stepped non-ready process %d", id)
		}
		r.steps++
		r.stepsBy[id]++
		if r.ctl {
			// Incremented before the window so a response recorded within
			// it (which ends the operation) resets the counter to zero.
			r.fpOpSteps[id]++
		}
		evBefore := len(r.h)
		r.beginWindow()
		if r.direct {
			if err := r.stepDirect(id); err != nil {
				return err
			}
		} else {
			p := r.procs[id]
			p.grant <- struct{}{}
			r.status[id] = <-p.sync
		}
		if r.track {
			a = r.endWindow(evBefore)
		}
	}
	if !r.track {
		a = Access{}
	}
	r.lastAccess = a
	return nil
}

// shutdown wakes every process still blocked on a grant and waits for
// all goroutines to exit (no fire-and-forget goroutines).
func (r *runtime) shutdown() {
	for id := 1; id <= r.cfg.Procs; id++ {
		if p := r.procs[id]; p != nil {
			close(p.halt)
			<-p.dead
		}
	}
}

// Run executes a configured simulation to completion and returns its
// result. It is safe to call concurrently with other Runs on distinct
// Config values.
func Run(cfg Config) *Result {
	if cfg.Procs < 1 {
		return &Result{Reason: StopError, Err: errors.New("sim: Procs must be >= 1")}
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = DefaultMaxSteps
	}
	r := startRuntime(cfg, cfg.Env)

	res := &Result{}
	for {
		if r.steps >= cfg.MaxSteps {
			res.Reason = StopBudget
			break
		}
		v := r.view()
		if len(v.Ready) == 0 && (!cfg.RecoverQuiescent || len(v.Crashed) == 0) {
			res.Reason = StopQuiescent
			break
		}
		d, ok := cfg.Scheduler.Next(v)
		if !ok {
			res.Reason = StopScheduler
			break
		}
		if err := r.applyDecision(d); err != nil {
			res.Reason = StopError
			res.Err = err
			break
		}
		r.schedule = append(r.schedule, d)
		if r.track {
			r.accesses = append(r.accesses, r.lastAccess)
		}
	}

	r.shutdown()

	res.H = r.h
	res.EventSteps = r.eventSteps
	res.Schedule = r.schedule
	res.Steps = r.steps
	res.StepsBy = r.stepsBy
	final := r.view()
	res.Idle = final.Idle
	res.Blocked = final.Blocked
	res.Crashed = final.Crashed
	res.Accesses = r.accesses
	if r.fpTrack && !r.fpPoisoned {
		if fp, ok := r.fingerprint(); ok {
			res.Fingerprint = fp
			res.Fingerprinted = true
		}
	}
	return res
}
