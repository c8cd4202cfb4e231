package slx

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/explore"
	"repro/internal/history"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/slx/hist"
	"repro/slx/run"
)

// Checker is the single public entry point over the simulation and
// exploration engine: configure it once with functional options, then
// drive one scheduled run (Check), replay a recorded schedule (Replay),
// run an attack strategy (Adversary), or exhaustively explore every
// schedule to a depth (Explore). All four return the same Report type.
type Checker struct {
	newObject  func() run.Object
	newEnv     func() run.Environment
	newSched   func() run.Scheduler
	procs      int
	maxSteps   int
	depth      int
	crashes    int
	recoveries int
	workers    int
	window     int
	por        bool
	cache      bool
	replay     bool
	sample     bool
	schedules  int
	sampleD    int
	walk       bool
	seed       int64
	timeout    time.Duration
	spawn      func(loop func()) bool
	visited    *VisitedTier
	ctx        context.Context
}

// Option configures a Checker.
type Option func(*Checker)

// WithObject sets the factory for the implementation under test. Each
// run gets a fresh instance (runs mutate objects). Required.
func WithObject(f func() run.Object) Option { return func(c *Checker) { c.newObject = f } }

// WithEnv sets the factory for the environment deciding invocations.
// Required by Check, Replay and Explore; adversaries bring their own.
// Unlike a scheduler, an environment keeps no state: Next must be a
// pure function of (proc, view), because Explore consults one instance
// on many branches, in any order, and never rewinds it. A process's
// position in its workload comes from the view (View.Invoked,
// View.StepsBy, View.H); an environment that keeps a counter instead
// can make Explore report wrong verdicts.
func WithEnv(f func() run.Environment) Option { return func(c *Checker) { c.newEnv = f } }

// WithScheduler sets the factory for the scheduler driving Check runs
// (schedulers are stateful, hence a factory). Default: fair round-robin.
func WithScheduler(f func() run.Scheduler) Option { return func(c *Checker) { c.newSched = f } }

// WithProcs sets the number of processes n. Default: 2.
func WithProcs(n int) Option { return func(c *Checker) { c.procs = n } }

// WithMaxSteps bounds each run's granted steps (and an adversary's
// budget). Default: run.DefaultMaxSteps.
func WithMaxSteps(n int) Option { return func(c *Checker) { c.maxSteps = n } }

// WithDepth bounds the schedule length of Explore. Default: 8.
func WithDepth(n int) Option { return func(c *Checker) { c.depth = n } }

// WithCrashes lets Explore additionally branch on crashing each ready
// process, at most n times per schedule (idle and blocked processes
// take no further steps, so crashing them would only duplicate sibling
// subtrees). Default: 0 (no crash injection).
func WithCrashes(n int) Option { return func(c *Checker) { c.crashes = n } }

// WithRecoveries lets Explore additionally branch on recovering each
// crashed process, at most n times per schedule (in sampling mode:
// inject up to n recover decisions at uniformly chosen steps; a sampled
// schedule still ends at the first configuration with no ready
// process, even with a process crashed and a recovery point armed, so
// sampling misses a violation that needs a recovery while nothing else
// can run). A recovered process re-enters the ready set: its operation
// pending at the crash never responds, its volatile object state is
// gone (wiped at the crash through the run.Recoverable hook, when
// implemented), and it runs the object's recovery routine — if any —
// before consulting the environment again. Objects without the hook
// recover too, with all state durable and no routine. Only meaningful
// together with WithCrashes(>= 1): without crashes no process is ever
// recoverable. Default: 0 (crashes are permanent).
func WithRecoveries(n int) Option { return func(c *Checker) { c.recoveries = n } }

// WithWorkers explores with n concurrent workers under a bounded
// work-stealing scheduler: workers split sibling subtrees into
// stealable tasks and share the sleep-set precomputation and the
// WithStateCache visited set, while violations stay deterministic (the
// failure at the lexicographically least schedule prefix — the one
// sequential exploration reports — wins regardless of worker timing).
// Properties are then checked from multiple goroutines. Values below 1
// are rejected by Explore and ValidateExplore; Report.Workers records
// the count actually used. Default: 1.
func WithWorkers(n int) Option { return func(c *Checker) { c.workers = n } }

// WithWindow sets the liveness tail-window length in steps; 0 means half
// the run. Default: 0.
func WithWindow(n int) Option { return func(c *Checker) { c.window = n } }

// WithContext attaches a context: cancellation stops runs and
// explorations early, and the driving method returns ctx.Err().
func WithContext(ctx context.Context) Option { return func(c *Checker) { c.ctx = ctx } }

// WithTimeout bounds Explore's wall-clock time (both exhaustive and
// sampling mode): the budget is threaded into the engine as a context
// deadline, layered on top of any WithContext. When it expires, Explore
// returns the partial Report — statistics over the work completed
// before the cut, Interrupted set, no verdicts — together with the
// context error, exactly like an external cancellation. d == 0 means no
// budget; Explore and ValidateExplore reject d < 0. This is the per-job
// wall-clock budget of slxd daemon jobs and the -timeout flag of
// one-shot CLI exploration.
func WithTimeout(d time.Duration) Option { return func(c *Checker) { c.timeout = d } }

// WithExecutor offers the extra worker loops of WithWorkers to an
// external executor instead of spawning goroutines: under exhaustive
// exploration the work-stealing scheduler's loops 1..n-1, under
// sampling the extra chunk-claiming lanes. The first loop always runs
// inline on the calling goroutine, so the exploration completes no
// matter what the executor does with the offers. offer returns whether
// it accepted the task; an accepted task must eventually be run (it
// exits promptly if no work remains by then), a declined one is simply
// never started, leaving the exploration correct but less parallel.
// This is how the slxd service shares one bounded worker pool across
// every job's sub-tasks — stolen subtrees and sample chunks run on
// whichever pool slots accept an offer — while reports stay identical
// to the in-process run. Default: nil (plain goroutines).
func WithExecutor(offer func(task func()) bool) Option {
	return func(c *Checker) { c.spawn = offer }
}

// VisitedTier is a state-cache tier that outlives one exploration: see
// WithVisitedTier.
type VisitedTier = explore.Visited

// NewVisitedTier creates an empty shareable visited-set tier.
func NewVisitedTier() *VisitedTier { return explore.NewVisited() }

// WithVisitedTier makes WithStateCache use the given shared tier
// instead of a private per-exploration visited set, so the states one
// exploration proves fully explored prune later explorations too (the
// slxd service keeps one tier per target). Sharing is sound only
// between checkers with identical object, environment and property
// configurations: entries carry their remaining depth/crash budgets and
// sleep sets, so differing WithDepth, WithCrashes or WithPOR settings
// compose through the cache's usual domination rules, but a different
// object or property family would make equal digests meaningless.
// Pre-populated entries can change WHICH equivalent witness a violated
// exploration reports, exactly as WithWorkers sharing does (verdicts
// are unaffected). Requires WithStateCache.
func WithVisitedTier(t *VisitedTier) Option { return func(c *Checker) { c.visited = t } }

// WithPOR enables sleep-set partial-order reduction in Explore: subtrees
// that only commute independent steps of an already-explored sibling are
// skipped and counted in Report.Pruned. Pruning needs the object under
// test to report per-step footprints (run.Footprinted; the repository's
// register/CAS/TM/lock implementations do) — objects without footprints
// explore the full tree exactly as before. POR preserves every verdict
// for properties that are invariant under swapping adjacent invocations
// (or adjacent responses) of different processes — true of every
// property in slx/check — but the witness of a violation may be a
// different (equivalent) schedule than full exploration reports.
// Default: off.
func WithPOR() Option { return func(c *Checker) { c.por = true } }

// WithStateCache enables state-fingerprint deduplication in Explore:
// prefixes that reach a configuration already fully explored — same
// object state (via the run.Fingerprintable hook), same process program
// counters, pending invocations, observations and crash set, and the
// same property-monitor residual state — are pruned and counted in
// Report.CacheHits. Objects without the fingerprint hook (or whose
// correctness depends on pointer identity, which the hook's contract
// excludes) explore the full tree exactly as before. Cache-hit
// soundness rests on the property monitors' canonical state digests
// (Digester); a monitor without the hook makes the prefixes it judges
// uncacheable, never unsound. Like WithPOR it assumes environments that
// decide invocations per process, independently of the view — true of
// every environment in this repository. Composes with WithPOR and
// WithWorkers; under WithWorkers the shared cache makes which
// equivalent witness is reported timing-dependent (verdicts are
// unaffected). Default: off.
func WithStateCache() Option { return func(c *Checker) { c.cache = true } }

// WithReplayExecution forces Explore onto from-root execution: every
// object instance is wrapped in an adapter that hides its snapshot and
// continuation hooks (sim.ApplyOnly), so the engine's sessions run the
// object's Apply — for a frame machine, its frames through
// run.ApplyFrames — and rebuild from the root on every backtrack that
// moves, never calling Snapshot, Restore or Frame.Fork. By default
// Explore backtracks by snapshot restore whenever the object
// (run.Snapshottable and run.Stepped) allows it, whatever the
// environment, which visits the identical tree with exactly one
// simulator step per prefix (Report.SimSteps); from-root rebuilds add
// the steps they re-execute to both Report.SimSteps and Report.Resims.
// The option exists for cross-checking the two strategies (the
// from-root run is the reference the snapshot hooks are audited
// against) and for before/after benchmarking: objects without the hooks
// take the from-root strategy automatically, so soundness never depends
// on them.
func WithReplayExecution() Option { return func(c *Checker) { c.replay = true } }

// WithSample switches Explore into probabilistic sampling mode: instead
// of enumerating every schedule, it samples the given number of seeded
// schedules with the PCT strategy (Probabilistic Concurrency Testing:
// per-schedule random distinct process priorities plus d priority-change
// points at uniformly chosen steps — a bug of depth d is found with
// probability at least 1/(n·kᵈ⁻¹) per schedule). WithDepth bounds each
// schedule's granted steps (sampling is built for depths far beyond the
// exhaustive ceiling), WithCrashes injects crash decisions at uniformly
// chosen steps (d, crashes and recoveries above the depth are rejected:
// every such point is one of the schedule's steps), and WithWorkers
// fans schedules across goroutines while keeping the Report — including
// which failure is surfaced — identical for a fixed WithSeed at any
// worker count (the least-index failing schedule wins, the sampling
// analogue of exhaustive exploration's preorder-least rule). Each
// worker executes all its schedules on one reused session: with the
// snapshot hooks (see WithReplayExecution) a
// schedule starts by a struct-copy restore of the root, otherwise (or
// under WithReplayExecution) by a from-root rebuild, with identical
// results. The Report gains Sampled, Schedules, DistinctStates and
// FailingSeed; a clean sampled Report is probabilistic evidence, not
// exhaustive proof. Sampling judges properties through the same
// monitors as exhaustive exploration and excludes WithPOR and
// WithStateCache. Under WithContext, cancellation is polled per
// schedule and Explore returns the partial Report (Interrupted set)
// together with the context error.
func WithSample(schedules, d int) Option {
	return func(c *Checker) { c.sample = true; c.schedules = schedules; c.sampleD = d }
}

// WithSampleWalk switches sampling mode to the uniform random-walk
// strategy: each step picks uniformly among the ready processes (the d
// of WithSample is then ignored). Walk is a baseline against PCT —
// memoryless, no priority structure.
func WithSampleWalk() Option { return func(c *Checker) { c.walk = true } }

// WithSeed sets sampling's master seed. Schedule i draws all its
// randomness from seed+i, so WithSeed(rep.FailingSeed) with
// WithSample(1, d) replays exactly the failing schedule's strategy.
// Default: 1.
func WithSeed(s int64) Option { return func(c *Checker) { c.seed = s } }

// New builds a Checker. At minimum WithObject is required; Check,
// Replay and Explore also need WithEnv.
func New(opts ...Option) *Checker {
	c := &Checker{
		procs:    2,
		maxSteps: run.DefaultMaxSteps,
		depth:    8,
		workers:  1,
		seed:     1,
		ctx:      context.Background(),
		newSched: func() run.Scheduler { return &run.RoundRobin{} },
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// need validates the configuration for an entry point.
func (c *Checker) need(method string, env bool) error {
	if c.newObject == nil {
		return fmt.Errorf("slx: %s requires WithObject", method)
	}
	if env && c.newEnv == nil {
		return fmt.Errorf("slx: %s requires WithEnv", method)
	}
	if c.procs < 1 {
		return fmt.Errorf("slx: %s requires WithProcs >= 1", method)
	}
	return nil
}

// cancellable wraps a scheduler so context cancellation ends the run.
func (c *Checker) cancellable(s run.Scheduler) run.Scheduler {
	return run.SchedulerFunc(func(v *run.View) (run.Decision, bool) {
		if c.ctx.Err() != nil {
			return run.Decision{}, false
		}
		return s.Next(v)
	})
}

// finish converts a finished run into a Report, evaluating every
// property on the unified execution.
func (c *Checker) finish(mode Mode, advName string, res *run.Result, props []Property) (*Report, error) {
	if err := c.ctx.Err(); err != nil {
		return nil, err
	}
	if res.Err != nil {
		return nil, fmt.Errorf("slx: run failed: %w", res.Err)
	}
	e := NewExecution(res, c.window)
	rep := &Report{Mode: mode, Adversary: advName, Execution: e, Schedule: res.Schedule}
	for _, p := range props {
		rep.Verdicts = append(rep.Verdicts, p.Check(e))
	}
	return rep, nil
}

// Check executes one scheduled run and judges every property on it.
func (c *Checker) Check(props ...Property) (*Report, error) {
	if err := c.need("Check", true); err != nil {
		return nil, err
	}
	res := run.Run(run.Config{
		Procs:     c.procs,
		Object:    c.newObject(),
		Env:       c.newEnv(),
		Scheduler: c.cancellable(c.newSched()),
		MaxSteps:  c.maxSteps,
	})
	return c.finish(ModeCheck, "", res, props)
}

// Replay re-executes a recorded schedule — typically a Verdict.Witness —
// against a fresh object instance and judges every property on the
// reproduced execution. Replay is deterministic: the same schedule and
// environment yield the same history and verdicts. The environment must
// match the one that produced the schedule (for an adversary witness,
// configure WithEnv from the strategy's EnvScripter). A configuration
// with no ready process but a crashed one does not end the replay: the
// schedule may recover that process next, and its exhaustion ends the
// run instead.
func (c *Checker) Replay(schedule []run.Decision, props ...Property) (*Report, error) {
	if err := c.need("Replay", true); err != nil {
		return nil, err
	}
	res := run.Run(run.Config{
		Procs:            c.procs,
		Object:           c.newObject(),
		Env:              c.newEnv(),
		Scheduler:        c.cancellable(run.Fixed(schedule)),
		MaxSteps:         len(schedule) + 1,
		RecoverQuiescent: true,
	})
	return c.finish(ModeReplay, "", res, props)
}

// AttackConfig is what a Checker hands an Adversary: the object factory
// and budgets the strategy must attack within.
type AttackConfig struct {
	// NewObject creates a fresh instance of the implementation under
	// attack (adversaries may replay many probe runs).
	NewObject func() run.Object
	// NewEnv is the checker's environment factory; nil when unset.
	// Strategies that script their own inputs ignore it.
	NewEnv func() run.Environment
	// Procs is the number of processes.
	Procs int
	// MaxSteps is the step budget (for the bivalence adversary: the
	// target schedule length).
	MaxSteps int
	// Ctx cancels long-running strategies.
	Ctx context.Context
}

// Adversary is an attack strategy: an entity that "decides on the
// schedule and inputs of processes" (Section 2) trying to defeat a
// liveness property while respecting safety. slx/adversary implements
// the paper's strategies.
type Adversary interface {
	// Name identifies the strategy in reports.
	Name() string
	// Attack drives the implementation and returns the resulting run.
	Attack(cfg AttackConfig) (*run.Result, error)
}

// EnvScripter is optionally implemented by adversaries that script their
// own process inputs instead of using the checker's environment. The
// returned factory rebuilds that environment, which is what a checker
// needs under WithEnv to Replay the strategy's witness schedules.
type EnvScripter interface {
	ScriptedEnv() func() run.Environment
}

// Adversary runs an attack strategy against the configured object and
// judges every property on the execution it produces. Strategies whose
// runs depend on strategy state beyond the schedule are still
// reproducible by re-running the strategy itself (attacks are
// deterministic).
func (c *Checker) Adversary(adv Adversary, props ...Property) (*Report, error) {
	if err := c.need("Adversary", false); err != nil {
		return nil, err
	}
	res, err := adv.Attack(AttackConfig{
		NewObject: c.newObject,
		NewEnv:    c.newEnv,
		Procs:     c.procs,
		MaxSteps:  c.maxSteps,
		Ctx:       c.ctx,
	})
	if err != nil {
		return nil, fmt.Errorf("slx: adversary %s: %w", adv.Name(), err)
	}
	return c.finish(ModeAdversary, adv.Name(), res, props)
}

// violation transports a failing verdict out of the exploration,
// together with the index of the property whose monitor failed (the
// location comes from the wrapping explore.Violation).
type violation struct {
	v   Verdict
	idx int
}

// Error implements error.
func (v *violation) Error() string { return v.v.String() }

// monitorSet adapts the property monitors to explore.MonitorSet. Small
// sets (the common case: one or two properties) keep the monitor slice
// in the inline array, so a fresh set is one allocation.
type monitorSet struct {
	mons   []Monitor
	inline [2]Monitor
}

// newMonitorSet returns a set of n empty monitor places.
func newMonitorSet(n int) *monitorSet {
	s := &monitorSet{}
	if n <= len(s.inline) {
		s.mons = s.inline[:n]
	} else {
		s.mons = make([]Monitor, n)
	}
	return s
}

// monitorSets is Explore's monitor-set factory, shared by the
// exhaustive and sampling engines: a set of fresh monitors, one per
// property in property order.
func monitorSets(props []Property) func() explore.MonitorSet {
	return func() explore.MonitorSet {
		s := newMonitorSet(len(props))
		for i, p := range props {
			s.mons[i] = p.Spawn()
		}
		return s
	}
}

// forkInto is the optional destination form of Monitor.Fork, which
// slx/check's monitors implement: dst is nil or a monitor forked
// earlier from the same root that nothing steps any more, and ForkInto
// may overwrite it and return it instead of allocating.
type forkInto interface {
	ForkInto(dst Monitor) Monitor
}

// Step implements explore.MonitorSet.
func (s *monitorSet) Step(e hist.Event) error {
	for i, m := range s.mons {
		if !m.Step(e) {
			return &violation{v: m.Verdict(), idx: i}
		}
	}
	return nil
}

// Fork implements explore.MonitorSet. A dst set is overwritten: each
// monitor with the ForkInto hook forks into its counterpart there, and
// every other monitor forks by Fork.
func (s *monitorSet) Fork(dst explore.MonitorSet) explore.MonitorSet {
	ns, _ := dst.(*monitorSet)
	if ns == nil {
		ns = newMonitorSet(len(s.mons))
	}
	for i, m := range s.mons {
		if f, ok := m.(forkInto); ok {
			ns.mons[i] = f.ForkInto(ns.mons[i])
		} else {
			ns.mons[i] = m.Fork()
		}
	}
	return ns
}

// StateDigest implements Digester for the explore engine by chaining
// the property monitors' digests in property order. The set is digestable only when
// every monitor is (see Digester); one undigestable monitor makes the
// prefix uncacheable, never unsound.
func (s *monitorSet) StateDigest() (uint64, bool) {
	h := history.DigestSeed()
	for _, m := range s.mons {
		dg, ok := m.(Digester)
		if !ok {
			return 0, false
		}
		d, ok := dg.StateDigest()
		if !ok {
			return 0, false
		}
		h = history.DigestWord(h, d)
	}
	return h, true
}

// Explore enumerates every schedule up to the configured depth
// (optionally with crash injection) and checks each property on every
// reachable history prefix. Only safety properties with a monitor are
// admissible: liveness is a statement about full fair executions, not
// prefixes, and a safety property whose Spawn returns nil is rejected
// (SafetyFunc and MonitoredSafety always spawn one). A clean
// exploration yields one passing Verdict per property; a violation
// yields the failing Verdict with the (non-nil) witness schedule and
// Report.Schedule set (and no verdicts for the other properties, since
// exploration stops at the first violation).
//
// Properties are judged incrementally: Explore spawns one Monitor per
// property, feeds each new event exactly once per DFS edge, and forks
// the monitor set at schedule branch points, so a prefix's events are
// never replayed into a fresh checker. Safety properties are
// prefix-closed, so judging each event once reaches the verdict that
// re-judging every prefix would. Sampling mode (WithSample) feeds its
// schedules to the same monitor sets. Report.EventScans counts the
// (event, monitor) judgments.
func (c *Checker) Explore(props ...Property) (*Report, error) {
	if err := c.ValidateExplore(props...); err != nil {
		return nil, err
	}
	ctx, cancel := c.exploreContext()
	defer cancel()
	if c.sample {
		return c.sampleExplore(ctx, props)
	}
	st, err := explore.Run(explore.Config{
		Procs:       c.procs,
		NewObject:   c.exploreObject(),
		NewEnv:      c.newEnv,
		NewMonitors: monitorSets(props),
		Depth:       c.depth,
		Crashes:     c.crashes,
		Recoveries:  c.recoveries,
		Workers:     c.workers,
		Spawn:       c.spawn,
		POR:         c.por,
		Cache:       c.cache,
		Visited:     c.visited,
		Ctx:         ctx,
	})
	if st == nil {
		return nil, fmt.Errorf("slx: exploration failed: %w", err)
	}
	rep := &Report{
		Mode: ModeExplore, Prefixes: st.Prefixes, SimSteps: st.Steps, Resims: st.Resims,
		Pruned: st.Pruned, CacheHits: st.CacheHits, Workers: st.Workers,
		Depth: c.depth, EventScans: st.Events * len(props),
	}
	return c.conclude(ctx, rep, props, err,
		fmt.Sprintf("no violation on %d schedule prefixes up to depth %d", st.Prefixes, c.depth))
}

// conclude completes an Explore Report, exhaustive or sampled, from the
// engine's outcome. A monitor violation becomes the failing verdict
// with its witness and the violating prefix's execution; the monitors
// after the failing one never saw the violating event, so EventScans
// drops their share. A cancellation or WithTimeout expiry returns the
// partial Report (statistics over the work completed before the cut,
// Interrupted set, no verdicts) with the context error. A clean run
// yields one passing verdict per property, explained by reason.
func (c *Checker) conclude(ctx context.Context, rep *Report, props []Property, err error, reason string) (*Report, error) {
	var vio *violation
	var ev *explore.Violation
	switch {
	case err == nil:
		for _, p := range props {
			rep.Verdicts = append(rep.Verdicts, Verdict{Property: p.Name(), Kind: p.Kind(), Holds: true, Reason: reason})
		}
		return rep, nil
	case errors.As(err, &vio) && errors.As(err, &ev):
		v := vio.v
		v.Witness = ev.Schedule
		rep.Execution = &Execution{H: ev.H, N: c.procs, Schedule: ev.Schedule, Window: c.window}
		rep.Schedule = v.Witness
		rep.Verdicts = []Verdict{v}
		rep.EventScans -= len(props) - vio.idx - 1
		return rep, nil
	case ctx.Err() != nil:
		rep.Interrupted = true
		return rep, ctx.Err()
	}
	return nil, fmt.Errorf("slx: exploration failed: %w", err)
}

// ValidateExplore checks the configuration and property set exactly as
// Explore would, without exploring anything: the admission check a
// service front end needs so a bad job is rejected synchronously with
// the same message the in-process call would produce. A nil error
// means Explore would proceed past validation (it can still fail later
// on engine errors).
func (c *Checker) ValidateExplore(props ...Property) error {
	if err := c.need("Explore", true); err != nil {
		return err
	}
	if c.visited != nil && !c.cache {
		return fmt.Errorf("slx: WithVisitedTier requires WithStateCache (the tier is the cache's storage)")
	}
	if c.workers < 1 {
		return fmt.Errorf("slx: workers: WithWorkers requires at least 1 worker, got %d", c.workers)
	}
	if c.depth < 0 {
		return fmt.Errorf("slx: depth: WithDepth requires n >= 0, got %d", c.depth)
	}
	if c.crashes < 0 {
		return fmt.Errorf("slx: crashes: WithCrashes requires n >= 0, got %d", c.crashes)
	}
	if c.timeout < 0 {
		return fmt.Errorf("slx: timeout: WithTimeout requires d >= 0, got %v", c.timeout)
	}
	if c.recoveries < 0 {
		return fmt.Errorf("slx: recoveries: WithRecoveries requires n >= 0, got %d", c.recoveries)
	}
	if c.recoveries > 0 && c.crashes < 1 {
		return fmt.Errorf("slx: WithRecoveries(%d) requires WithCrashes >= 1 (without crashes no process is ever recoverable)", c.recoveries)
	}
	if c.sample {
		switch {
		case c.schedules < 1:
			return fmt.Errorf("slx: WithSample requires at least 1 schedule, got %d", c.schedules)
		case c.sampleD < 0:
			return fmt.Errorf("slx: WithSample requires d >= 0, got %d", c.sampleD)
		// Every change, crash and recovery point is drawn from the steps
		// of a schedule, so a larger budget buys nothing and would only
		// size the strategy's tables.
		case c.sampleD > c.depth:
			return fmt.Errorf("slx: d: sampling draws each change point from the %d steps of a schedule, so d must be at most %d, got %d", c.depth, c.depth, c.sampleD)
		case c.crashes > c.depth:
			return fmt.Errorf("slx: crashes: sampling draws each crash point from the %d steps of a schedule, so crashes must be at most %d, got %d", c.depth, c.depth, c.crashes)
		case c.recoveries > c.depth:
			return fmt.Errorf("slx: recoveries: sampling draws each recovery point from the %d steps of a schedule, so recoveries must be at most %d, got %d", c.depth, c.depth, c.recoveries)
		case c.por:
			return fmt.Errorf("slx: WithSample excludes WithPOR (sleep sets prune an enumeration; sampling has none)")
		case c.cache:
			return fmt.Errorf("slx: WithSample excludes WithStateCache (sampled schedules are independent; terminal states are already deduplicated into DistinctStates)")
		}
	}
	for _, p := range props {
		if p.Kind() != Safety {
			return fmt.Errorf("slx: Explore checks prefixes, so it only admits safety properties; %q is %v", p.Name(), p.Kind())
		}
		if p.Spawn() == nil {
			return fmt.Errorf("slx: Explore judges properties through incremental monitors, but %q has none (Spawn returns nil); build it with SafetyFunc or MonitoredSafety", p.Name())
		}
	}
	return nil
}

// exploreObject is Explore's object factory: under WithReplayExecution
// every instance is wrapped by sim.ApplyOnly, so the engine's sessions
// rebuild from the root over the object's Apply.
func (c *Checker) exploreObject() func() run.Object {
	if !c.replay {
		return c.newObject
	}
	return func() run.Object { return sim.ApplyOnly(c.newObject()) }
}

// exploreContext derives Explore's working context: the configured one,
// bounded by the WithTimeout deadline when one is set.
func (c *Checker) exploreContext() (context.Context, context.CancelFunc) {
	if c.timeout > 0 {
		return context.WithTimeout(c.ctx, c.timeout)
	}
	return c.ctx, func() {}
}

// sampleExplore is Explore's sampling mode (WithSample): see the option
// for the contract. The Report's statistics are computed over the
// deterministic merged prefix of schedules, so a fixed seed yields an
// identical Report at any worker count. Validation already ran in
// Explore.
func (c *Checker) sampleExplore(ctx context.Context, props []Property) (*Report, error) {
	strat := sample.PCT
	stratName := fmt.Sprintf("PCT d=%d", c.sampleD)
	if c.walk {
		strat = sample.Walk
		stratName = "random walk"
	}
	st, err := sample.Run(sample.Config{
		Procs:        c.procs,
		NewObject:    c.exploreObject(),
		NewEnv:       c.newEnv,
		NewMonitors:  monitorSets(props),
		Schedules:    c.schedules,
		Steps:        c.depth,
		Crashes:      c.crashes,
		Recoveries:   c.recoveries,
		Strategy:     strat,
		ChangePoints: c.sampleD,
		Seed:         c.seed,
		Workers:      c.workers,
		Spawn:        c.spawn,
		Ctx:          ctx,
	})
	if st == nil {
		return nil, fmt.Errorf("slx: exploration failed: %w", err)
	}
	rep := &Report{
		Mode: ModeExplore, Sampled: true,
		Schedules: st.Schedules, DistinctStates: st.DistinctStates,
		SimSteps: st.Steps, Resims: st.Resims, Workers: st.Workers, Depth: c.depth,
		EventScans: st.Events * len(props), FailingSeed: st.FailingSeed,
	}
	return c.conclude(ctx, rep, props, err,
		fmt.Sprintf("no violation on %d sampled schedules to depth %d (%s, seed %d) — probabilistic evidence, not exhaustive proof",
			st.Schedules, c.depth, stratName, c.seed))
}
