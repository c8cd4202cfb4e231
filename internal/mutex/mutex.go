// Package mutex implements the lock shared-object type the paper's
// Section 3.2 cites as the home of starvation-freedom ("the strongest
// liveness requirement for lock-based implementations"), with three
// implementations from base objects:
//
//   - Peterson: the classic two-process starvation-free lock from
//     registers;
//   - Tournament: the n-process tournament of Peterson locks
//     (starvation-free, registers only);
//   - TASLock: a test-and-set spinlock — deadlock-free but NOT
//     starvation-free, which the StarveTAS adversary demonstrates with a
//     fair schedule on which one process never acquires.
//
// The object type has operations "acquire" (response Locked) and
// "release" (response Unlocked); the good-response set for lock liveness
// is {Locked}, so starvation-freedom is exactly wait-freedom over
// acquisitions and deadlock-freedom is 1-lock-freedom.
package mutex

import (
	"repro/internal/base"
	"repro/internal/history"
	"repro/internal/liveness"
	"repro/internal/safety"
	"repro/internal/sim"
)

// Lock operation names (aliases of the safety package's) and responses.
const (
	OpAcquire = safety.LockAcquire
	OpRelease = safety.LockRelease
	Locked    = "locked"
	Unlocked  = "unlocked"
)

// Good is the lock good-response set: only acquisitions are progress.
func Good() liveness.Good { return liveness.Good{Locked: true} }

// StarvationFreedom is the lock L_max: every correct process that keeps
// requesting the lock acquires it infinitely often.
func StarvationFreedom() liveness.Property {
	return liveness.WaitFreedom{Good: Good()}
}

// DeadlockFreedom requires that some process keeps acquiring.
func DeadlockFreedom() liveness.Property {
	return liveness.LLockFreedom{L: 1, Good: Good()}
}

// Peterson is the two-process Peterson lock from registers. Process ids
// must be 1 and 2.
//
//slx:norecover flag and turn registers are modeled durable; a crashed holder simply never releases
type Peterson struct {
	base.Mem
	flag [2]*base.Register
	turn *base.Register
}

// NewPeterson creates the lock.
func NewPeterson() *Peterson {
	l := &Peterson{}
	l.flag = [2]*base.Register{
		base.NewRegister(&l.Mem, "flag1", false),
		base.NewRegister(&l.Mem, "flag2", false),
	}
	l.turn = base.NewRegister(&l.Mem, "turn", 1)
	return l
}

// Footprints implements sim.Footprinted: all shared state is in the
// three named registers.
func (l *Peterson) Footprints() bool { return true }

// Fingerprint implements sim.Fingerprintable: the three registers hold
// booleans and process ids, compared by value.
func (l *Peterson) Fingerprint(f *sim.Fingerprinter) { l.Fold(f) }

// Apply implements sim.Object.
func (l *Peterson) Apply(p *sim.Proc, inv sim.Invocation) history.Value {
	return sim.ApplyFrames(l, p, inv)
}

// petersonFrame is one in-flight Peterson operation as a continuation
// state machine; pc tracks the acquire protocol's position (write own
// flag, write turn, then the two-read spin loop).
type petersonFrame struct {
	l       *Peterson
	me      int // p.ID() - 1
	acquire bool
	pc      int
}

// Begin implements sim.Stepped: both operations start with a base
// access, so the invocation window runs no object code.
func (l *Peterson) Begin(p *sim.Proc, inv sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	switch inv.Op {
	case OpAcquire:
		return &petersonFrame{l: l, me: p.ID() - 1, acquire: true}, nil, sim.StepPaused
	case OpRelease:
		return &petersonFrame{l: l, me: p.ID() - 1}, nil, sim.StepPaused
	default:
		return nil, nil, sim.StepDone
	}
}

// Step implements sim.Frame. Acquire writes the own flag, yields the
// turn, then spins reading the other's flag and the turn until either
// lets it in; release clears the own flag.
func (f *petersonFrame) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	l := f.l
	if !f.acquire {
		l.flag[f.me].WriteW(p, false)
		return Unlocked, sim.StepDone
	}
	other := 1 - f.me
	switch f.pc {
	case 0:
		l.flag[f.me].WriteW(p, true)
		f.pc = 1
	case 1:
		l.turn.WriteW(p, other+1)
		f.pc = 2
	case 2:
		if !l.flag[other].ReadW(p).(bool) {
			return Locked, sim.StepDone
		}
		f.pc = 3
	case 3:
		if l.turn.ReadW(p) != other+1 {
			return Locked, sim.StepDone
		}
		f.pc = 2
	}
	return nil, sim.StepPaused
}

// Fork implements sim.Frame.
func (f *petersonFrame) Fork() sim.Frame {
	c := *f
	return &c
}

// TASLock is a test-and-set spinlock: deadlock-free, not starvation-free.
//
//slx:norecover the one TAS bit is modeled durable; a crashed holder simply never releases
type TASLock struct {
	base.Mem
	t *base.TAS
}

// NewTASLock creates the lock.
func NewTASLock() *TASLock {
	l := &TASLock{}
	l.t = base.NewTAS(&l.Mem, "lock")
	return l
}

// Footprints implements sim.Footprinted: all shared state is the single
// test-and-set bit.
func (l *TASLock) Footprints() bool { return true }

// Fingerprint implements sim.Fingerprintable: the single bit is the
// whole shared state.
func (l *TASLock) Fingerprint(f *sim.Fingerprinter) { l.Fold(f) }

// Apply implements sim.Object.
func (l *TASLock) Apply(p *sim.Proc, inv sim.Invocation) history.Value {
	return sim.ApplyFrames(l, p, inv)
}

// tasLockFrame is one in-flight TASLock operation. It carries no
// mutable state (the spin loop re-runs the same test-and-set step), so
// Fork returns the frame itself.
type tasLockFrame struct {
	l       *TASLock
	acquire bool
}

// Begin implements sim.Stepped.
func (l *TASLock) Begin(p *sim.Proc, inv sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	switch inv.Op {
	case OpAcquire:
		return &tasLockFrame{l: l, acquire: true}, nil, sim.StepPaused
	case OpRelease:
		return &tasLockFrame{l: l}, nil, sim.StepPaused
	default:
		return nil, nil, sim.StepDone
	}
}

// Step implements sim.Frame.
func (f *tasLockFrame) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	if !f.acquire {
		f.l.t.ResetW(p)
		return Unlocked, sim.StepDone
	}
	if f.l.t.TestAndSetW(p) {
		return Locked, sim.StepDone
	}
	return nil, sim.StepPaused
}

// Fork implements sim.Frame: the frame is immutable.
func (f *tasLockFrame) Fork() sim.Frame { return f }

// Tournament is the n-process tournament lock: a binary tree of Peterson
// locks; a process climbs from its leaf to the root, playing the side its
// subtree lies on at each node, and releases top-down in reverse. n is
// rounded up to a power of two.
//
//slx:norecover flag and turn registers are modeled durable; a crashed holder simply never releases
type Tournament struct {
	base.Mem
	levels int
	// node flags/turn per internal node: node index 1..(leafBase-1),
	// heap-style (children of i are 2i and 2i+1).
	flag map[int][2]*base.Register
	turn map[int]*base.Register
	leaf int // first leaf index = number of internal nodes + 1
}

// NewTournament creates the lock for n processes (n >= 1).
func NewTournament(n int) *Tournament {
	size := 1
	levels := 0
	for size < n {
		size *= 2
		levels++
	}
	t := &Tournament{
		levels: levels,
		flag:   make(map[int][2]*base.Register),
		turn:   make(map[int]*base.Register),
		leaf:   size,
	}
	for node := 1; node < size; node++ {
		t.flag[node] = [2]*base.Register{
			base.NewRegister(&t.Mem, "flagL", false),
			base.NewRegister(&t.Mem, "flagR", false),
		}
		t.turn[node] = base.NewRegister(&t.Mem, "turn", 0)
	}
	return t
}

// Footprints implements sim.Footprinted: all shared state is in the
// nodes' registers (nodes share names, which only adds conflicts).
func (t *Tournament) Footprints() bool { return true }

// Fingerprint implements sim.Fingerprintable: booleans and sides,
// compared by value.
func (t *Tournament) Fingerprint(f *sim.Fingerprinter) { t.Fold(f) }

// Apply implements sim.Object.
func (t *Tournament) Apply(p *sim.Proc, inv sim.Invocation) history.Value {
	return sim.ApplyFrames(t, p, inv)
}

// Begin implements sim.Stepped. A process's climb starts at its leaf,
// heap position leaf+id-1; with one process there is no node to climb
// and both operations complete in the invocation window.
func (t *Tournament) Begin(p *sim.Proc, inv sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	pos := t.leaf + p.ID() - 1
	switch inv.Op {
	case OpAcquire:
		if pos == 1 {
			return nil, Locked, sim.StepDone
		}
		return &tournamentFrame{t: t, acquire: true, pos: pos}, nil, sim.StepPaused
	case OpRelease:
		if t.levels == 0 {
			return nil, Unlocked, sim.StepDone
		}
		return &tournamentFrame{t: t, leafPos: pos, level: t.levels - 1}, nil, sim.StepPaused
	default:
		return nil, nil, sim.StepDone
	}
}

// tournamentFrame is one in-flight Tournament operation. Acquire climbs
// from the leaf: at each node it plays Peterson's protocol on the side
// its subtree lies on (pos%2) — write the own flag, yield the turn,
// then spin reading the other side's flag and the turn — and moves up
// once let in. Release walks the same path top down, clearing one flag
// per window: the node at level k above the leaf is reached from heap
// position leafPos>>k.
type tournamentFrame struct {
	t       *Tournament
	acquire bool
	pos     int // acquire: the child position whose node is being played
	pc      int // acquire: 0 write flag, 1 write turn, 2 read flag, 3 read turn
	leafPos int // release: the process's leaf position
	level   int // release: the level whose flag the next Step clears
}

// Step implements sim.Frame.
func (f *tournamentFrame) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	t := f.t
	if !f.acquire {
		pos := f.leafPos >> f.level
		t.flag[pos/2][pos%2].WriteW(p, false)
		if f.level == 0 {
			return Unlocked, sim.StepDone
		}
		f.level--
		return nil, sim.StepPaused
	}
	node, side := f.pos/2, f.pos%2
	other := 1 - side
	switch f.pc {
	case 0:
		t.flag[node][side].WriteW(p, true)
		f.pc = 1
	case 1:
		t.turn[node].WriteW(p, other)
		f.pc = 2
	case 2:
		if !t.flag[node][other].ReadW(p).(bool) {
			return f.climb()
		}
		f.pc = 3
	case 3:
		if t.turn[node].ReadW(p) != other {
			return f.climb()
		}
		f.pc = 2
	}
	return nil, sim.StepPaused
}

// climb moves past the node just won: the lock is held once the root
// is.
func (f *tournamentFrame) climb() (history.Value, sim.StepStatus) {
	f.pos /= 2
	if f.pos == 1 {
		return Locked, sim.StepDone
	}
	f.pc = 0
	return nil, sim.StepPaused
}

// Fork implements sim.Frame.
func (f *tournamentFrame) Fork() sim.Frame {
	c := *f
	return &c
}

// acquireReleaseEnv alternates acquire/release per process, derived
// purely from the process's own last response in the view.
type acquireReleaseEnv struct{ procs int }

// Next implements sim.Environment.
func (e *acquireReleaseEnv) Next(proc int, v *sim.View) (sim.Invocation, bool) {
	if proc > e.procs {
		return sim.Invocation{}, false
	}
	h := v.H
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].Proc == proc && h[i].Kind == history.KindResponse {
			if h[i].Val == Locked {
				return sim.Invocation{Op: OpRelease}, true
			}
			return sim.Invocation{Op: OpAcquire}, true
		}
	}
	return sim.Invocation{Op: OpAcquire}, true
}

// AcquireReleaseLoop is the lock liveness environment: every process
// alternates acquire and release forever. The next operation is derived
// purely from the process's own last response, so one instance serves
// every branch of an exploration.
func AcquireReleaseLoop(procs int) sim.Environment {
	return &acquireReleaseEnv{procs: procs}
}

// StarveTAS is the adversary scheduler that starves process victim on a
// TAS lock while staying fair (both processes take infinitely many steps):
// the victim is granted steps only while the other process holds the lock,
// so each of its test-and-set attempts fails; the owner cycles
// acquire/release forever. Derived purely from the history, so it works
// against any lock implementation — against starvation-free locks (e.g.
// Peterson) the run it produces simply stops being constructible (the
// owner blocks), which tests demonstrate.
func StarveTAS(victim, owner int) sim.Scheduler {
	last := 0
	return sim.SchedulerFunc(func(v *sim.View) (sim.Decision, bool) {
		// While the owner holds the lock, alternate the two processes so
		// the owner still advances toward its release (fairness); while the
		// lock is free, run only the owner so it re-acquires before the
		// victim can attempt a test-and-set.
		if holder(v.H) == owner && last != victim && v.ReadyContains(victim) {
			last = victim
			return sim.Decision{Proc: victim}, true
		}
		if v.ReadyContains(owner) {
			last = owner
			return sim.Decision{Proc: owner}, true
		}
		if v.ReadyContains(victim) {
			last = victim
			return sim.Decision{Proc: victim}, true
		}
		return sim.Decision{}, false
	})
}

// holder returns the process currently holding the lock per the history (0
// if none): the last acquire response not yet followed by its release
// invocation.
func holder(h history.History) int {
	cur := 0
	for _, e := range h {
		switch {
		case e.Kind == history.KindResponse && e.Op == OpAcquire && e.Val == Locked:
			cur = e.Proc
		case e.Kind == history.KindInvoke && e.Op == OpRelease && e.Proc == cur:
			cur = 0
		}
	}
	return cur
}
