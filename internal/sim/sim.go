// Package sim implements the asynchronous shared-memory system of the
// paper's Section 2 as a deterministic, scheduler-driven simulator.
//
// One runtime executes every run: a dispatch loop that grants one
// atomic step at a time — an invocation or a base-object operation —
// to the process the scheduler chose. The scheduler therefore plays
// exactly the role of the paper's external scheduler ("an external
// entity ... over which processes have no control"). Because grants are
// serialized, a run is fully determined by the schedule (the sequence
// of scheduler decisions) for deterministic algorithms and
// environments, which makes replay and adversarial probing possible: a
// configuration is represented by the schedule prefix that produced it.
//
// Each process's in-flight operation is a continuation Frame, and a
// grant is a direct call into it. Objects implementing Stepped supply
// their own frames (one resumable step per grant) — every in-tree
// object does, and derives its Apply from them with ApplyFrames; a
// hand-written blocking Apply runs through an adapter that presents the
// call as a frame whose steps are the call's Proc.Exec windows. Run drives the
// runtime with a Scheduler. Session is the executor the exploration
// engines drive: a live configuration extended one decision at a time
// and rewound to marks, either by snapshot (a plain struct copy) or by
// rebuilding from the root. As in the paper's model, where each process
// is one automaton with its own local state, the runtime keeps each
// process's control state — status, counters, pending invocation,
// in-flight frame — in one record, which a mark copies whole, sharing
// the frame until the process next steps.
//
// The runtime records the external history (invocations, responses, crash
// events) exactly as defined in internal/history, along with per-event step
// indices used by the bounded liveness checkers.
package sim

import (
	"errors"
	"fmt"

	"repro/internal/history"
)

// DefaultMaxSteps bounds a run when Config.MaxSteps is zero.
const DefaultMaxSteps = 10000

// Sentinel panics used internally to unwind blocking Apply calls. They
// are recovered by the runtime; algorithm code must never recover them.
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
// An object written as a frame machine (Stepped) derives Apply with
// ApplyFrames; a hand-written Apply is the form for ObjectFunc and for
// objects without frames.
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
// step of the invoking process and must be a pure function of (proc, v):
// the same process and an equal view always yield the same invocation,
// whatever the instance was asked before. One instance may be consulted
// on many branches of an exploration, in any order, and is never
// rewound; a position in a workload comes from the view (Invoked,
// StepsBy, H), not from a counter the environment keeps. Returning
// ok=false parks the process forever (it has no further work).
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
	// Invoked[i] is the number of operations process i has invoked —
	// completed, pending or killed by a crash — which is the number of
	// environment choices it has consumed; index 0 is unused.
	Invoked []int
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

// Proc is the per-process handle passed to Object.Apply and to Stepped
// machines. It implements base.Accessor.
type Proc struct {
	id int
	n  int
	rt *runtime
	// call is the process's in-flight blocking Apply call (nil when the
	// process runs a Stepped frame or no operation at all).
	call *applyFrame
}

// ID returns the 1-based process identifier.
func (p *Proc) ID() int { return p.id }

// N returns the total number of processes in the system.
func (p *Proc) N() int { return p.n }

// Exec performs op as one atomic step of a blocking Apply call: the
// call parks until the scheduler grants this process its next step,
// then runs op and the code after it, up to the next Exec or the
// return. desc describes the step for tracing. Stepped objects never
// call Exec — the dispatch loop grants their windows directly — so Exec
// outside an in-flight Apply call is a contract violation and panics.
func (p *Proc) Exec(desc string, op func()) {
	_ = desc
	f := p.call
	if f == nil {
		panic("sim: Proc.Exec called outside a blocking Apply; Stepped objects must perform accesses in Begin/Step windows")
	}
	f.stop <- applyStop{st: StepPaused}
	if !<-f.resume {
		panic(errHalted)
	}
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
	obs := &r.ps[p.id].obs
	r.fpEnc.Restart(*obs)
	r.fpEnc.Val(v)
	if r.fpEnc.Poisoned() {
		r.fpPoisoned = true
		return
	}
	*obs = r.fpEnc.Sum()
}

// Block parks the process forever: the current operation never completes
// and the process never takes another step. It models implementations whose
// automata stop enabling actions (e.g. the trivial implementation I_t in
// the proof of Theorem 4.9). Block does not return.
func (p *Proc) Block() {
	panic(errBlocked)
}

// procState is one process's control state: all of the configuration
// that belongs to the process rather than to the object. Session.Mark
// copies the records whole, Restore copies them back, and the
// fingerprint folds each of them. A copied record shares its frame
// with the mark: step forks a shared frame before stepping it, so no
// mark's frame is ever stepped. It also carries its own folded word,
// so marks and restores carry the word with the record.
type procState struct {
	status  procStatus
	stepsBy int // steps granted
	// pending is the invoked operation awaiting its response (valid
	// when hasPend), opSteps the steps taken within it (its program
	// counter) and obs the digest of the values it observed (its local
	// state, kept up only when the run fingerprints).
	pending Invocation
	opSteps int
	obs     uint64
	// completed and invoked count the operations finished and started.
	// They drift apart only through crashes: an operation killed by a
	// crash consumed an environment invocation without completing, and
	// the stock environments derive their position from the invoked
	// count, so the fingerprint must separate configurations that
	// differ only in it.
	completed int
	invoked   int
	// recEpoch counts recover decisions; recovering marks a process
	// running its recovery routine.
	recEpoch int
	// frame is the in-flight operation's continuation (nil between
	// operations), shared when a mark may hold it too; next is the
	// invocation the environment chose that the process has not yet
	// invoked, valid when hasNext.
	frame Frame
	next  Invocation
	// word is the record's fingerprint word (runtime.procWord), valid
	// when fresh. Only a decision of the process itself changes its
	// record, and applyDecision clears fresh before it does.
	word uint64

	hasPend, hasNext, recovering, shared, fresh bool
}

// endOp resets the in-operation state when an operation or a recovery
// routine ends: its local variables die with it.
func (ps *procState) endOp() {
	ps.opSteps = 0
	ps.obs = history.DigestSeed()
}

type runtime struct {
	cfg   Config
	env   Environment
	procs []Proc      // handles, index 0 unused
	ps    []procState // control state, index 0 unused

	h          history.History
	eventSteps []int
	steps      int
	schedule   []Decision // decisions applied (Run and from-root sessions)

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

	// recObj is the object's Recoverable facet (nil when not
	// implemented).
	recObj Recoverable

	// State-fingerprint tracking (only when Config.Fingerprint is set and
	// the object opts in via Fingerprintable). fpPoisoned marks a run
	// whose local state depends on a scheduling-time view (LazyArg),
	// which no configuration fingerprint can capture.
	fpTrack    bool
	fpPoisoned bool
	fpEnc      Fingerprinter // reused by Observe and fingerprint for its encoding buffer

	// lastAccess is the footprint of the most recent decision (zero when
	// the object does not track footprints).
	lastAccess Access

	// stepped is the machine operations begin on (the object's own, or
	// the blocking-Apply adapter). vw is the reusable view handed to
	// environments and LazyArgs: it is valid only for the duration of
	// the call.
	stepped Stepped
	vw      View
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

// record appends an external event to the history and updates the
// process's control state. It is called by the dispatch loop within a
// granted window, or between windows for crash and recover events.
func (r *runtime) record(e history.Event) {
	r.h = append(r.h, e)
	r.eventSteps = append(r.eventSteps, r.steps)
	ps := &r.ps[e.Proc]
	switch e.Kind {
	case history.KindInvoke:
		ps.pending = Invocation{Op: e.Op, Obj: e.Obj, Arg: e.Arg}
		ps.hasPend = true
		ps.invoked++
	case history.KindResponse:
		ps.hasPend = false
		ps.completed++
		ps.endOp()
	}
}

// counts returns the zeroed StepsBy and Invoked slices of a view over
// n processes, carved from one allocation.
func counts(n int) (stepsBy, invoked []int) {
	buf := make([]int, 2*(n+1))
	return buf[: n+1 : n+1], buf[n+1:]
}

// view builds a fresh View for a Run scheduler, which may retain it.
func (r *runtime) view() *View {
	v := &View{H: r.h[:len(r.h):len(r.h)], Steps: r.steps}
	v.StepsBy, v.Invoked = counts(r.cfg.Procs)
	r.fill(v)
	return v
}

// envView rebuilds the runtime's reusable view. The view and its slices
// are valid only for the duration of the environment or LazyArg call
// it is handed to, which must not retain them.
func (r *runtime) envView() *View {
	v := &r.vw
	v.H = r.h[:len(r.h):len(r.h)]
	v.Steps = r.steps
	v.Ready = v.Ready[:0]
	v.Idle = v.Idle[:0]
	v.Blocked = v.Blocked[:0]
	v.Crashed = v.Crashed[:0]
	r.fill(v)
	return v
}

// fill writes each process's counts into the view's StepsBy and
// Invoked, which the caller sized, and appends its id, in order, to
// the view's list for its status.
func (r *runtime) fill(v *View) {
	for id := 1; id <= r.cfg.Procs; id++ {
		ps := &r.ps[id]
		v.StepsBy[id] = ps.stepsBy
		v.Invoked[id] = ps.invoked
		switch ps.status {
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
}

// ownMachine returns o's own continuation machine: nil when o does not
// implement Stepped or vetoes it through SessionGated.
func ownMachine(o Object) Stepped {
	s, ok := o.(Stepped)
	if !ok {
		return nil
	}
	if g, ok := o.(SessionGated); ok && !g.Snapshotting() {
		return nil
	}
	return s
}

// newRuntime builds the runtime of Run and Session at the initial
// configuration. Its start step consults the environment for each
// process's first invocation, one process at a time in id order, so
// initial readiness is deterministic: process id's environment sees
// the statuses of 1..id-1.
func newRuntime(cfg Config, env Environment) *runtime {
	r := &runtime{
		cfg:     cfg,
		env:     env,
		procs:   make([]Proc, cfg.Procs+1),
		ps:      make([]procState, cfg.Procs+1),
		stepped: ownMachine(cfg.Object),
	}
	r.vw.StepsBy, r.vw.Invoked = counts(cfg.Procs)
	if r.stepped == nil {
		r.stepped = applyMachine{cfg.Object}
	}
	if f, ok := cfg.Object.(Footprinted); ok && f.Footprints() {
		r.track = true
	}
	r.recObj, _ = cfg.Object.(Recoverable)
	if _, ok := cfg.Object.(Fingerprintable); ok && cfg.Fingerprint {
		r.fpTrack = true
	}
	for id := 1; id <= cfg.Procs; id++ {
		r.procs[id] = Proc{id: id, n: cfg.Procs, rt: r}
		r.ps[id].obs = history.DigestSeed()
		r.consultEnv(id)
	}
	return r
}

// consultEnv asks the environment for process id's next invocation and
// records the outcome in the process's record: a process with no
// further work is idle, not ready, matching the paper's fairness notion
// that only enabled actions demand turns. The process's own status is
// still its pre-consultation value (ready mid-run, unset at startup,
// crashed at a recover decision).
func (r *runtime) consultEnv(id int) {
	inv, ok := r.env.Next(id, r.envView())
	ps := &r.ps[id]
	ps.hasNext = ok
	if ok {
		ps.next = inv
		ps.status = statusReady
	} else {
		ps.status = statusIdle
	}
}

// applyDecision validates and executes one scheduler decision. The
// returned error corresponds to sim.Run's StopError cases; the caller
// must have checked its own budget and that some process is ready. On
// success r.lastAccess holds the decision's footprint (zero when the
// object does not track footprints).
func (r *runtime) applyDecision(d Decision) error {
	id := d.Proc
	if id < 1 || id > r.cfg.Procs {
		return fmt.Errorf("sim: scheduler chose invalid process %d", id)
	}
	if d.Crash && d.Recover {
		return fmt.Errorf("sim: decision cannot both crash and recover process %d", id)
	}
	ps := &r.ps[id]
	ps.fresh = false
	var a Access
	switch {
	case d.Crash:
		if ps.status == statusCrashed {
			return fmt.Errorf("sim: scheduler crashed process %d twice", id)
		}
		// The crashed process keeps its pending invocation and its frame:
		// they are part of the configuration (fingerprints include the
		// pending operations of crashed processes), they just never run —
		// unless a later recover decision discards them.
		r.record(history.Crash(id))
		ps.status = statusCrashed
		if r.recObj != nil {
			r.recObj.CrashVolatile()
		}
		a = Access{Known: true, Crash: true}
	case d.Recover:
		if ps.status != statusCrashed {
			return fmt.Errorf("sim: scheduler recovered non-crashed process %d", id)
		}
		r.record(history.Recover(id))
		ps.recEpoch++
		ps.pending = Invocation{}
		ps.hasPend = false
		ps.endOp()
		var rec Frame
		if r.recObj != nil {
			rec = r.recObj.RecoverFrame()
		}
		// Set unconditionally: the process may have crashed during a
		// previous recovery routine, leaving the flag true.
		ps.recovering = rec != nil
		r.restart(id, rec)
		a = Access{Known: true, Recover: true}
	default:
		if ps.status != statusReady {
			return fmt.Errorf("sim: scheduler stepped non-ready process %d", id)
		}
		r.steps++
		ps.stepsBy++
		// Incremented before the window so a response recorded within it
		// (which ends the operation) resets the counter to zero.
		ps.opSteps++
		evBefore := len(r.h)
		r.beginWindow()
		if err := r.step(id); err != nil {
			return err
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

// step runs process id's granted window: the next step of its frame, or
// — between operations — the invocation window, which resolves a lazy
// argument against the view at scheduling time, records the invocation
// and begins the operation. The caller (applyDecision) has validated
// the decision and opened the window.
func (r *runtime) step(id int) error {
	p, ps := &r.procs[id], &r.ps[id]
	var val history.Value
	var st StepStatus
	if f := ps.frame; f != nil {
		if ps.shared {
			f = f.Fork()
			ps.frame, ps.shared = f, false
		}
		val, st = f.Step(p)
		if st != StepPaused {
			ps.frame = nil
		}
	} else {
		inv := ps.next
		ps.hasNext = false
		if la, lazy := inv.Arg.(LazyArg); lazy {
			inv.Arg = la(r.envView())
			r.lazyStep = true
			r.fpPoisoned = true
		}
		r.record(history.Event{
			Kind: history.KindInvoke, Proc: id,
			Op: inv.Op, Obj: inv.Obj, Arg: inv.Arg,
		})
		var f Frame
		f, val, st = r.stepped.Begin(p, inv)
		if st == StepPaused {
			ps.frame, ps.shared = f, false
		}
	}
	switch st {
	case StepPaused:
		// The operation pauses at its next step boundary; the process
		// stays ready.
	case StepBlocked:
		ps.status = statusBlocked
	case StepDone:
		if ps.recovering {
			// A completed recovery routine records no response — recovery
			// is not an operation — but the next-environment consultation
			// still happens within the same window.
			ps.recovering = false
			ps.endOp()
			r.consultEnv(id)
			break
		}
		// Response and next-environment consultation happen within the
		// same window.
		r.record(history.Event{
			Kind: history.KindResponse, Proc: id,
			Op: ps.pending.Op, Obj: ps.pending.Obj, Val: val,
		})
		r.consultEnv(id)
	default:
		return fmt.Errorf("sim: object %T returned invalid step status %d", r.cfg.Object, st)
	}
	return nil
}

// restart restarts a recovered process: the in-flight frame and the
// chosen-but-uninvoked next invocation are volatile process state and
// die with the crash; the recovery routine (if any) becomes the
// process's frame, and without one the environment is consulted
// immediately, within the recover decision.
func (r *runtime) restart(id int, rec Frame) {
	r.dropFrame(id)
	ps := &r.ps[id]
	ps.hasNext = false
	if rec != nil {
		ps.frame, ps.shared = rec, false
		ps.status = statusReady
		return
	}
	r.consultEnv(id)
}

// dropFrame discards process id's in-flight frame, unwinding it first
// when it is a parked blocking Apply call.
func (r *runtime) dropFrame(id int) {
	if f, ok := r.ps[id].frame.(*applyFrame); ok {
		f.halt()
	}
	r.ps[id].frame = nil
}

// shutdown discards every in-flight frame, so no blocking Apply call
// outlives the runtime.
func (r *runtime) shutdown() {
	for id := 1; id <= r.cfg.Procs; id++ {
		r.dropFrame(id)
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
	r := newRuntime(cfg, cfg.Env)
	// Unwinds the blocking Apply calls still parked when the run ends,
	// also when a panic from object code is re-raised here.
	defer r.shutdown()

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

	res.H = r.h
	res.EventSteps = r.eventSteps
	res.Schedule = r.schedule
	res.Steps = r.steps
	final := r.view()
	res.StepsBy = final.StepsBy
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
