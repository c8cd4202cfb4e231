package sim

import (
	"errors"
	"fmt"

	"repro/internal/history"
)

// Snapshottable is the state-capture half of the incremental execution
// engine's object contract: a Session rewinds an Object implementing it
// to an earlier configuration instead of re-executing the whole
// schedule prefix from the initial state. Implementing it promises that
//
//  1. Snapshot returns a value capturing ALL state that outlives a
//     single granted step and is not held in continuation frames, such
//     that Restore(s) brings the object back to behavior
//     indistinguishable from the moment Snapshot was called. An
//     implementation built from internal/base derives the pair: it
//     embeds a base.Mem, allocates every base object, lazy allocation
//     and per-process operation context as cells of it, and the
//     promoted Mem.Snapshot and Mem.Restore are its hook.
//  2. Restore never adopts the snapshot value mutably: the engine
//     restores the same snapshot many times (including twice around a
//     single rewind), so Restore must copy what it cannot treat as
//     immutable, and Snapshot must return data later mutations of the
//     object cannot reach.
//  3. State local to one in-flight operation lives in its Frame (see
//     Stepped), not in the object: a mark shares the live frames, and
//     the Session forks a frame before its process's first step after
//     a Mark or Restore (copy on write), so anything a frame reaches by
//     pointer must either be covered by Snapshot/Restore or be
//     deep-copied by Frame.Fork.
//  4. The Stepped machine is deterministic given the invocation and the
//     observed values (which the simulator already requires for
//     replay).
//
// Unlike Fingerprintable, pointer identity is no obstacle: a snapshot
// may hold pointers to immutable records (the CAS idiom), since Restore
// reinstates the exact pointers. Sessions over objects without the hook
// take the from-root strategy (see NewSession); exploration's soundness
// never depends on Snapshottable being implemented or implementable.
type Snapshottable interface {
	Object
	// Snapshot captures the object's current state.
	Snapshot() any
	// Restore reinstates a state previously returned by Snapshot.
	Restore(any)
}

// SessionGated is optionally implemented alongside Snapshottable and
// Stepped by objects whose support for them depends on runtime
// composition (e.g. a wrapper that forwards the hooks to whatever
// object it wraps, and vetoes them when that object lacks them):
// Snapshotting() == false vetoes both hooks, exactly as if they were
// absent — the runtime runs the object's blocking Apply, and sessions
// rebuild from the root.
type SessionGated interface {
	Snapshotting() bool
}

// CanSnapshot reports whether an object supports the snapshot strategy
// of a Session: it implements both Snapshottable and Stepped (a mark's
// frames must be forkable, which only an object's own Stepped machine
// can provide) and does not veto them via SessionGated.
func CanSnapshot(o Object) bool {
	_, ok := o.(Snapshottable)
	return ok && ownMachine(o) != nil
}

// SessionConfig describes a persistent simulation.
type SessionConfig struct {
	// Procs is the number of processes n (1-based ids 1..n).
	Procs int
	// Object is the implementation under test, the session's first
	// instance. The session owns and mutates it.
	Object Object
	// NewObject creates fresh instances for from-root rebuilds. Required
	// when the session takes the from-root strategy (see NewSession);
	// unused under the snapshot strategy.
	NewObject func() Object
	// NewEnv creates an environment instance: one for the session's
	// start, which serves every branch, and one per from-root rebuild.
	// Environments are pure (see Environment), so the session never
	// rewinds one.
	NewEnv func() Environment
	// Fingerprint enables configuration fingerprints (Session.Fingerprint)
	// when the Object also implements Fingerprintable.
	Fingerprint bool
}

// Session is a live simulation that supports incremental extension
// (Extend: apply exactly one more scheduler decision) and backtracking
// (Mark/Restore: rewind to an earlier configuration on the current
// execution path). It is the one executor both exploration engines
// drive, over the runtime sim.Run uses, so LazyArgs, footprints,
// fingerprints, crashes and recoveries behave exactly as in sim.Run.
// NewSession picks one of two restore strategies:
//
//   - Snapshot: when the object supports snapshots (CanSnapshot).
//     Restore is a plain struct copy — object snapshot and the process
//     records — with zero re-executed steps. Marks and the live
//     configuration share in-flight frames; a process forks its frame
//     when it next steps, so a branch point copies only the frames its
//     next child steps.
//   - From root: otherwise. A mark records the number of decisions
//     taken, and Restore rebuilds the configuration from a fresh object
//     and environment by re-applying the marked prefix (plain stateless
//     search: runs are deterministic, so re-execution reaches the
//     identical configuration).
//
// Neither strategy rewinds the environment: it decides from (proc, view)
// alone, and each process's chosen next invocation lives in its record.
//
// Sessions are not safe for concurrent use; marks may only be restored
// on the path that created them (a mark is a prefix of the current
// execution). Close unwinds the blocking Apply calls still in flight.
type Session struct {
	rt     *runtime
	cfg    SessionConfig
	obj    Snapshottable // snapshot strategy only
	closed bool
	free   *Mark // freelist of Released marks, linked through Mark.link
}

// NewSession starts a session positioned at the initial configuration,
// choosing its restore strategy once, by the object alone: snapshot when
// CanSnapshot(Object) holds, from root otherwise. A from-root session
// requires NewObject.
func NewSession(cfg SessionConfig) (*Session, error) {
	if cfg.Procs < 1 {
		return nil, errors.New("sim: session Procs must be >= 1")
	}
	if cfg.Object == nil {
		return nil, errors.New("sim: session requires Object")
	}
	if cfg.NewEnv == nil {
		return nil, errors.New("sim: session requires NewEnv")
	}
	s := &Session{cfg: cfg}
	if CanSnapshot(cfg.Object) {
		s.obj = cfg.Object.(Snapshottable)
	} else if cfg.NewObject == nil {
		return nil, fmt.Errorf("sim: session over %T rebuilds from the root and requires NewObject", cfg.Object)
	}
	s.rt = newRuntime(Config{Procs: cfg.Procs, Object: cfg.Object, Fingerprint: cfg.Fingerprint}, cfg.NewEnv())
	return s, nil
}

// fromRoot reports whether the session rebuilds from the root.
func (s *Session) fromRoot() bool { return s.obj == nil }

// StepInfo reports what one Extend did.
type StepInfo struct {
	// Delta holds the events the decision recorded. It is a view into
	// the session's live history buffer: valid until the session is
	// restored at or below the delta's first event (and then extended),
	// which in DFS terms means valid for as long as the node that
	// produced it is on the exploration stack. Callers that retain a
	// delta beyond that (violation witnesses) must copy it.
	Delta history.History
	// Access is the footprint of the decision (zero/unknown when the
	// object does not track footprints), matching Result.Accesses.
	Access Access
	// Steps is the number of simulator steps granted: 0 for a crash or
	// recover decision, 1 otherwise.
	Steps int
}

// Extend applies one scheduler decision to the live configuration. The
// decision must be valid (a ready process, a crash of a non-crashed
// process, or a recover of a crashed one), exactly as for a sim.Run
// scheduler.
func (s *Session) Extend(d Decision) (StepInfo, error) {
	r := s.rt
	if s.closed {
		return StepInfo{}, errors.New("sim: session is closed")
	}
	evBefore := len(r.h)
	stepsBefore := r.steps
	if err := r.applyDecision(d); err != nil {
		return StepInfo{}, err
	}
	if s.fromRoot() {
		r.schedule = append(r.schedule, d)
	}
	return StepInfo{
		Delta:  r.h[evBefore:len(r.h):len(r.h)],
		Access: r.lastAccess,
		Steps:  r.steps - stepsBefore,
	}, nil
}

// Ready returns the sorted ids of processes currently awaiting a step.
func (s *Session) Ready() []int {
	return s.ReadyAppend(nil)
}

// ReadyAppend appends the sorted ids of processes currently awaiting a
// step to dst and returns the extended slice. Callers that consult
// readiness once per simulated step (the sampling engine's schedule
// loop) reuse one buffer across calls instead of allocating per step.
func (s *Session) ReadyAppend(dst []int) []int {
	r := s.rt
	for id := 1; id <= r.cfg.Procs; id++ {
		if r.ps[id].status == statusReady {
			dst = append(dst, id)
		}
	}
	return dst
}

// CrashedAppend appends the sorted ids of currently crashed processes to
// dst and returns the extended slice: the candidates for a recover
// decision, mirroring ReadyAppend for step decisions.
func (s *Session) CrashedAppend(dst []int) []int {
	r := s.rt
	for id := 1; id <= r.cfg.Procs; id++ {
		if r.ps[id].status == statusCrashed {
			dst = append(dst, id)
		}
	}
	return dst
}

// History returns the external history of the current configuration.
// Like StepInfo.Delta, it is a view into the session's live buffer:
// valid until the session is restored below the current position and
// extended again. Callers that retain it (violation witnesses) must
// copy it.
func (s *Session) History() history.History {
	return s.rt.h[:len(s.rt.h):len(s.rt.h)]
}

// Steps returns the number of simulator steps granted so far.
func (s *Session) Steps() int { return s.rt.steps }

// Fingerprint computes the canonical configuration fingerprint, exactly
// as Result.Fingerprint would report it for a from-root replay of the
// same schedule. ok is false when the session does not fingerprint
// (SessionConfig.Fingerprint off, object not Fingerprintable) or the
// execution was poisoned (LazyArg, unencodable value).
func (s *Session) Fingerprint() (uint64, bool) {
	r := s.rt
	if !r.fpTrack || r.fpPoisoned {
		return 0, false
	}
	return r.fingerprint()
}

// Mark captures the current configuration for a later Restore. Under
// the snapshot strategy it holds the object snapshot plus a copy of the
// process records, whose frames it shares with the live configuration
// until a process steps; under the from-root strategy only the number
// of decisions taken.
type Mark struct {
	decisions int // from-root strategy only
	obj       any
	hLen      int
	steps     int
	poisoned  bool
	procs     []procState // the records of processes 1..n
	link      *Mark       // Session.Release freelist
}

// Mark snapshots the current configuration. Marks are cheap (the
// object snapshot plus one copy of the process records, no frame
// forked) and poolable: Release returns one to the session for reuse.
func (s *Session) Mark() *Mark {
	r := s.rt
	m := s.free
	if m != nil {
		s.free = m.link
		m.link = nil
	} else {
		m = &Mark{}
	}
	if s.fromRoot() {
		m.decisions = len(r.schedule)
		return m
	}
	if m.procs == nil {
		m.procs = make([]procState, r.cfg.Procs)
	}
	m.obj = s.obj.Snapshot()
	m.hLen = len(r.h)
	m.steps = r.steps
	m.poisoned = r.fpPoisoned
	for id := 1; id <= r.cfg.Procs; id++ {
		r.ps[id].shared = true
	}
	copy(m.procs, r.ps[1:])
	return m
}

// Release returns a mark to the session's pool for reuse by a later
// Mark. The caller must not use the mark afterwards; releasing a mark
// that could still be restored is a use-after-free on the caller's
// side. Release is optional — unreleased marks are simply garbage
// collected.
func (s *Session) Release(m *Mark) {
	if m == nil || m.link != nil {
		return
	}
	m.obj = nil
	clear(m.procs)
	m.link = s.free
	s.free = m
}

// Restore rewinds the session to a mark taken earlier on the current
// execution path and returns the number of simulator steps it
// re-executed. Under the snapshot strategy that is always 0: a copy of
// the marked process records, sharing the mark's frames, plus the
// object snapshot. Under the from-root strategy a restore that moves
// discards the runtime, starts over from a fresh object and
// environment, and re-applies the marked prefix.
func (s *Session) Restore(m *Mark) (int, error) {
	r := s.rt
	if s.closed {
		return 0, errors.New("sim: session is closed")
	}
	if s.fromRoot() {
		return s.rebuild(m)
	}
	moved := r.steps != m.steps || len(r.h) != m.hLen
	if !moved {
		same := true
		for id := 1; id <= r.cfg.Procs; id++ {
			if r.ps[id].status != m.procs[id-1].status {
				same = false
				break
			}
		}
		if same {
			return 0, nil
		}
	}

	// History truncates in place: deltas handed out above the mark are
	// dead once the caller restores below them (see StepInfo.Delta).
	r.h = r.h[:m.hLen]
	r.eventSteps = r.eventSteps[:m.hLen]
	r.steps = m.steps
	r.fpPoisoned = m.poisoned
	// The mark's records are all shared, so the live frames fork before
	// they step: the same mark may be restored many times.
	copy(r.ps[1:], m.procs)
	if moved {
		s.obj.Restore(m.obj)
	}
	return 0, nil
}

// rebuild is the from-root strategy's Restore: unless the session is
// already at the mark, it replaces the runtime by a fresh one over a new
// object and environment and re-applies the first m.decisions decisions
// of the current path. Deltas and histories handed out earlier keep
// their own buffers.
func (s *Session) rebuild(m *Mark) (int, error) {
	old := s.rt
	if len(old.schedule) == m.decisions {
		return 0, nil
	}
	old.shutdown()
	r := newRuntime(Config{Procs: s.cfg.Procs, Object: s.cfg.NewObject(), Fingerprint: s.cfg.Fingerprint}, s.cfg.NewEnv())
	s.rt = r
	for _, d := range old.schedule[:m.decisions] {
		if err := r.applyDecision(d); err != nil {
			return r.steps, err
		}
		r.schedule = append(r.schedule, d)
	}
	return r.steps, nil
}

// Close shuts the session down, unwinding the blocking Apply calls
// still in flight. The session's history remains readable;
// Extend/Restore fail afterwards.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.rt.shutdown()
}
