// Package run is the public facade over the deterministic scheduler-driven
// simulator (internal/sim): the asynchronous shared-memory system of the
// paper's Section 2, in which an external scheduler grants every atomic
// step. All types are aliases of the implementation types, so schedules,
// results and objects flow freely between the public API and the engine.
//
// A run is fully determined by its schedule (the sequence of Decision
// values), which is what makes witness schedules replayable: feed a
// recorded schedule to Fixed and the identical history is reproduced.
package run

import (
	"repro/internal/history"
	"repro/internal/sim"
)

// DefaultMaxSteps bounds a run when Config.MaxSteps is zero.
const DefaultMaxSteps = sim.DefaultMaxSteps

// Invocation describes an operation a process invokes on the object under
// test.
type Invocation = sim.Invocation

// LazyArg is an invocation argument resolved at scheduling time.
type LazyArg = sim.LazyArg

// Object is a shared-object implementation under test.
type Object = sim.Object

// ObjectFunc adapts a function to Object.
type ObjectFunc = sim.ObjectFunc

// Proc is the per-process handle passed to Object.Apply.
type Proc = sim.Proc

// Footprinted is the opt-in footprint hook for partial-order reduction:
// Objects implementing it promise that every cross-process access of
// Apply is declared to the executing Proc (repository base objects
// declare automatically; custom single-step objects call Proc.Access).
type Footprinted = sim.Footprinted

// Access is the recorded footprint of one scheduler decision.
type Access = sim.Access

// Fingerprintable is the opt-in state-fingerprint hook for exploration's
// state cache: Objects implementing it promise a canonical content
// encoding of all shared state (never pointer-identity-sensitive) and
// that every value Apply reads from shared state is declared via
// Proc.Observe (repository base objects declare automatically).
type Fingerprintable = sim.Fingerprintable

// Fingerprinter accumulates the canonical state digest an Object's
// Fingerprint hook writes into.
type Fingerprinter = sim.Fingerprinter

// Snapshottable is the opt-in snapshot hook of incremental exploration:
// Objects implementing it (together with Stepped) can be rewound to
// earlier configurations by struct copy, so Explore backtracks without
// re-executing anything. Snapshot/Restore must capture all object state
// that outlives a granted step (repository objects keep that state in
// the cells of an embedded base memory, whose Snapshot/Restore they
// promote); in-flight operation state lives in the continuation
// frames, which the engine forks and restores by itself. See the sim.Snapshottable contract for the details. Objects
// without the hook are explored by from-root rebuilds on every
// backtrack, with identical verdicts.
type Snapshottable = sim.Snapshottable

// Stepped is the frame form of an Object: operations run as explicit
// resumable frames (one access per Step call) driven directly by the
// runtime's dispatch loop, in Run and in exploration alike; objects
// without it run their blocking Apply through an adapter. The snapshot
// strategy requires it alongside Snapshottable. A Stepped object
// derives its Apply from its frames with ApplyFrames. See sim.Stepped.
type Stepped = sim.Stepped

// ApplyFrames runs s's frame machine as one blocking Apply call: Begin
// in the invocation window, then one Proc.Exec window per Frame.Step.
// A Stepped object's Apply is this one call.
func ApplyFrames(s Stepped, p *Proc, inv Invocation) history.Value {
	return sim.ApplyFrames(s, p, inv)
}

// Frame is one in-flight operation of a Stepped object.
type Frame = sim.Frame

// StepStatus is what a Begin or Step call reports back to the engine.
type StepStatus = sim.StepStatus

// Step statuses.
const (
	StepPaused  = sim.StepPaused
	StepDone    = sim.StepDone
	StepBlocked = sim.StepBlocked
)

// RewindableEnv is the environment-rewind hook exploration sessions
// once consulted.
//
// Deprecated: an Environment is a pure function of (proc, view) and is
// never rewound, so nothing consults this interface; an environment
// needs Next alone.
type RewindableEnv interface {
	Environment
	EnvSnapshot() any
	EnvRestore(any)
}

// Recoverable is the opt-in crash–recovery hook: Objects implementing
// it split their state into a durable part that survives crashes
// (CrashVolatile wipes everything else at every crash decision) and
// provide the recovery routine a recovered process runs before
// rejoining its workload (RecoverFrame; nil means none). Objects
// without the hook still support recover decisions — all their state is
// treated as durable and recovery runs no routine. See sim.Recoverable
// for the full composition contract.
type Recoverable = sim.Recoverable

// SessionGated optionally vetoes snapshot support at runtime (for
// wrappers whose wrapped object may lack the hooks); see
// sim.SessionGated.
type SessionGated = sim.SessionGated

// CanSnapshot reports whether an object supports the snapshot strategy
// of exploration sessions, which it alone decides.
func CanSnapshot(o Object) bool { return sim.CanSnapshot(o) }

// Environment decides which operations processes invoke, as a pure
// function of (proc, view); see sim.Environment.
type Environment = sim.Environment

// EnvironmentFunc adapts a function to Environment. The function must be
// pure in (proc, view) and keep no counters: exploration consults it on
// many branches, in any order, and never rewinds it.
type EnvironmentFunc = sim.EnvironmentFunc

// Decision is one scheduler choice: grant a step, crash a process, or
// recover a crashed process.
type Decision = sim.Decision

// Scheduler picks the next decision given the current view.
type Scheduler = sim.Scheduler

// SchedulerFunc adapts a function to Scheduler.
type SchedulerFunc = sim.SchedulerFunc

// View is a read-only snapshot of the run passed to schedulers and
// environments. StepsBy and Invoked count each process's granted steps
// and invoked operations; the stock environments (Script, OneShot)
// read their position from Invoked.
type View = sim.View

// StopReason says why a run ended.
type StopReason = sim.StopReason

// Stop reasons.
const (
	StopBudget    = sim.StopBudget
	StopScheduler = sim.StopScheduler
	StopQuiescent = sim.StopQuiescent
	StopError     = sim.StopError
)

// Result is the outcome of a run.
type Result = sim.Result

// Config describes a run.
type Config = sim.Config

// Run executes a configured simulation to completion.
func Run(cfg Config) *Result { return sim.Run(cfg) }

// Schedulers.

// RoundRobin schedules ready processes cyclically by id (fair).
type RoundRobin = sim.RoundRobin

// Solo schedules only the given process (step-contention-free runs).
func Solo(proc int) Scheduler { return sim.Solo(proc) }

// Fixed replays an explicit decision sequence, then stops.
func Fixed(schedule []Decision) Scheduler { return sim.Fixed(schedule) }

// FixedProcs replays an explicit sequence of process ids, then stops.
func FixedProcs(procs []int) Scheduler { return sim.FixedProcs(procs) }

// Seq runs each scheduler in turn as the previous one stops.
func Seq(scheds ...Scheduler) Scheduler { return sim.Seq(scheds...) }

// Random schedules uniformly among ready processes, seeded for replay.
func Random(seed int64) Scheduler { return sim.Random(seed) }

// RandomCrashy is Random plus a bounded per-decision crash probability.
func RandomCrashy(seed int64, crashProb float64, maxCrashes int) Scheduler {
	return sim.RandomCrashy(seed, crashProb, maxCrashes)
}

// Limit wraps a scheduler and stops after at most n of its decisions.
func Limit(s Scheduler, n int) Scheduler { return sim.Limit(s, n) }

// Alternate steps the given processes in strict rotation.
func Alternate(procs ...int) Scheduler { return sim.Alternate(procs...) }

// Environments.

// OneShot has each process perform its single invocation, then idle.
func OneShot(invs map[int]Invocation) Environment { return sim.OneShot(invs) }

// Script has each process perform its listed invocations in order.
func Script(script map[int][]Invocation) Environment { return sim.Script(script) }

// Repeat has every process perform the same invocation forever.
func Repeat(inv Invocation) Environment { return sim.Repeat(inv) }

// RepeatPerProc has each process repeat its own invocation forever.
func RepeatPerProc(invs map[int]Invocation) Environment { return sim.RepeatPerProc(invs) }
