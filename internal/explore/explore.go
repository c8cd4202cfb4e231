// Package explore performs exhaustive bounded exploration of the
// simulator: it enumerates every schedule up to a depth (optionally with
// crash injection) and checks every reachable history. This is how the
// repository certifies the positive (implementability) side of the
// paper's claims: the commit-adopt consensus satisfies
// agreement+validity on all interleavings at small depth, and both TM
// implementations satisfy opacity (and I12 property S) likewise.
//
// Execution runs on one persistent sim.Session per worker: the DFS
// descends by extending the live configuration one decision at a time
// and backtracks by restoring marks. The session picks its restore
// strategy (see sim.NewSession). Objects implementing
// sim.Snapshottable and sim.Stepped restore by struct copy, so each
// tree edge costs exactly one simulator step; the environment, a pure
// function of (proc, view), is never rewound. Every other exploration
// rebuilds from the root on each backtrack that moves (runs are
// deterministic, so re-execution reaches the identical configuration)
// and reports the re-executed steps in Stats.Resims. Both strategies
// enumerate the identical tree, verdicts and witnesses.
//
// Properties are judged incrementally: the exploration threads a
// MonitorSet (Config.NewMonitors) down the DFS, forks it at every branch
// point and feeds it only the delta events the new schedule edge
// produced (sim.StepInfo.Delta), so each event is judged once per path
// instead of once per descendant prefix. Safety properties are
// prefix-closed, so judging each new event once reaches the verdict
// re-judging every prefix would. A branch point copies only what its
// next child changes: the last explored child takes the parent's set
// itself, each earlier one a fork into the worker's slot for that
// depth, whose previous occupant's subtree is done, and the session
// forks an in-flight frame only when its process next steps.
//
// Config.POR additionally enables sleep-set partial-order reduction:
// when the object under test reports per-step footprints
// (sim.Footprinted), subtrees that only commute independent steps of an
// already-explored sibling are skipped. See the package's dependence
// relation in dependent for what "independent" means here and DESIGN.md
// for the soundness argument.
//
// Config.Cache enables state-fingerprint deduplication: prefixes whose
// reached configuration (sim.Result.Fingerprint) and monitor residual
// state (history.Digester) match an already fully explored state are
// pruned, cutting the subtrees rooted at states that many inequivalent
// schedules reach. Config.Workers > 1 explores the tree with a bounded
// work-stealing scheduler; all workers share the visited set.
//
// Package sample is the probabilistic sibling: instead of enumerating
// the tree it draws seeded PCT (or random-walk) schedules from it,
// feeding the same MonitorSet and reporting the same Violation — the
// trade of completeness for depth when exhaustive exploration cannot
// reach the interesting states.
package explore

import (
	"context"
	"fmt"

	"repro/internal/history"
	"repro/internal/sim"
)

// MonitorSet judges one DFS path incrementally: exploration feeds it
// each new event exactly once and forks it at schedule branch points.
type MonitorSet interface {
	// Step consumes one new event of the path. A non-nil error is the
	// violation (exploration stops and reports it with the witness).
	Step(e history.Event) error
	// Fork returns an independent copy for a sibling branch; stepping
	// either copy must not affect the other. dst is nil or a set forked
	// earlier from the same root set whose branch is fully explored
	// without error: Fork may reuse dst's storage for the copy and
	// return it, or ignore dst. Nil means allocate.
	Fork(dst MonitorSet) MonitorSet
}

// Violation wraps a MonitorSet violation with its location: the witness
// schedule (always non-nil), the full history of the violating prefix,
// and the index of the event on which Step failed. Unwrap exposes the
// monitor's error.
type Violation struct {
	// Schedule is the witness prefix (non-nil, possibly empty).
	Schedule []sim.Decision
	// H is the history of the violating prefix.
	H history.History
	// EventIndex is the index in H of the event Step rejected.
	EventIndex int
	// Cause is the error Step returned.
	Cause error
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("explore: violation at event %d of schedule %v: %v", v.EventIndex, v.Schedule, v.Cause)
}

// Unwrap exposes the monitor's error.
func (v *Violation) Unwrap() error { return v.Cause }

// Config describes an exhaustive exploration.
type Config struct {
	// Procs is the number of processes.
	Procs int
	// NewObject creates a fresh implementation instance (called once per
	// worker session, and once per from-root rebuild).
	NewObject func() sim.Object
	// NewEnv creates an environment instance (called once per worker
	// session, and once per from-root rebuild). Environments are pure
	// (see sim.Environment): one instance serves every branch.
	NewEnv func() sim.Environment
	// Depth bounds the schedule length.
	Depth int
	// Crashes additionally branches on crashing each ready process, at
	// most this many times per schedule. 0 disables crash injection.
	// (Idle and blocked processes take no further steps, so crashing them
	// would only duplicate their sibling subtrees modulo a crash event.)
	Crashes int
	// Recoveries additionally branches on recovering each crashed
	// process, at most this many times per schedule. 0 disables recovery
	// injection; it only matters together with Crashes > 0 (without
	// crashes no process is ever recoverable). A recovered process
	// re-enters the ready set — its pending operation never responds, its
	// volatile state is wiped (sim.Recoverable), and it runs its recovery
	// routine before rejoining the workload. Like crash decisions,
	// recover decisions are never pruned or slept by POR.
	Recoveries int
	// NewMonitors creates the root monitor set once per exploration. A
	// Step error aborts the exploration and is reported wrapped in a
	// *Violation. Required.
	NewMonitors func() MonitorSet
	// Workers > 1 explores the tree concurrently with a bounded
	// work-stealing scheduler: each worker runs the same DFS and splits
	// sibling subtrees into stealable tasks while its deque has room.
	// Violations are still reported deterministically — the failure at
	// the preorder-least (lexicographically least) schedule prefix, the
	// one sequential DFS reaches first — regardless of worker timing.
	Workers int
	// Spawn optionally offers the extra worker loops of Workers > 1 to
	// an external executor instead of spawning goroutines: loop 0 always
	// runs inline on the calling goroutine (so the exploration makes
	// progress no matter what the executor does), and each remaining
	// loop is offered once. Spawn returns whether it accepted the loop;
	// an accepted loop must eventually be run (it exits promptly if the
	// subtree pool has drained by then), a declined loop is simply not
	// started. This is how the slxd service pool bounds the total
	// exploration concurrency across jobs: stolen-subtree sub-tasks run
	// on whichever pool slots accept a loop. Statistics stay worker-count
	// independent either way. Nil spawns goroutines as before.
	Spawn func(loop func()) bool
	// POR enables sleep-set partial-order reduction: subtrees whose first
	// step is asleep (covered, up to commuting independent steps, by an
	// already-explored sibling) are skipped and counted in Stats.Pruned.
	// Pruning requires the object to report per-step footprints
	// (sim.Footprinted); without them every step conflicts with every
	// other and the exploration is exhaustive as before. POR assumes the
	// checked properties are invariant under swapping adjacent
	// invocations (or adjacent responses) of different processes, and
	// environments that decide invocations per process, independent of
	// the view — both hold for the repository's environments and
	// properties. Crash and recover decisions are never pruned or slept.
	POR bool
	// Cache enables the state-fingerprint visited set: a prefix whose
	// reached configuration and monitor digest match a state whose
	// subtree was already fully explored (with at least as much depth
	// and crash budget remaining, and under a sleep set no larger than
	// the current one) is pruned and counted in Stats.CacheHits.
	// Cache-hit soundness rests on the monitor set's digest
	// (history.Digester) and on objects that opt into
	// sim.Fingerprintable; prefixes without a valid fingerprint or
	// digest are explored as usual. Like POR it assumes
	// view-independent environments. Witnesses remain
	// deterministic at Workers == 1; with Workers > 1 the shared visited
	// set makes WHICH equivalent witness is found timing-dependent
	// (verdicts are unaffected).
	Cache bool
	// Visited optionally supplies the visited-set tier Cache uses, so
	// the tier outlives one exploration and is shared across several
	// (the slxd service shares one tier per target). Sharing is sound
	// only between explorations with identical NewObject, NewEnv and
	// NewMonitors semantics: entries carry their remaining depth/crash
	// budgets and sleep sets, so differing Depth, Crashes or POR
	// settings compose through the usual domination rules, but a
	// different object or monitor family would make equal digests
	// meaningless. Pre-populated entries can change WHICH equivalent
	// witness a violated exploration reports (verdicts are unaffected),
	// exactly like the Workers > 1 sharing. Nil (or Cache unset) keeps
	// the cache private to the exploration.
	Visited *Visited
	// Ctx optionally cancels the exploration; it is polled once per
	// explored prefix and its error returned as-is.
	Ctx context.Context
}

// Stats summarizes an exploration.
type Stats struct {
	// Prefixes is the number of schedule prefixes explored (histories
	// checked).
	Prefixes int
	// Steps counts the simulator steps executed on the DFS path: one per
	// explored non-crash edge, plus the steps from-root restores
	// re-execute to return to a marked node (none under the snapshot
	// strategy, where Steps is identical for sequential and parallel
	// runs). The footprint probes that POR with Workers > 1 performs at
	// split points are excluded, so parallel and sequential statistics
	// stay comparable.
	Steps int
	// Events counts the events fed to the monitor set, the violating
	// event included.
	Events int
	// Resims counts simulator steps spent re-establishing already
	// visited configurations rather than exploring new ones: the steps
	// from-root restores re-execute (also included in Steps), the seed
	// replays of stolen subtrees and the POR split probes.
	// Timing-dependent at Workers > 1 (stealing decides how much
	// re-seeding happens).
	Resims int
	// Pruned is the number of subtrees skipped by partial-order
	// reduction (0 unless Config.POR).
	Pruned int
	// CacheHits is the number of subtrees skipped because the reached
	// state was already fully explored (0 unless Config.Cache).
	CacheHits int
	// Workers is the number of workers the exploration actually used
	// (Config.Workers clamped to at least 1).
	Workers int
	// Witness is the schedule prefix whose delta a monitor Step
	// rejected: nil when no violation was found, non-nil otherwise. The
	// root prefix records no events, so a witness holds at least the
	// decision that produced the rejected event.
	Witness []sim.Decision
}

// witness copies a prefix into a witness schedule, normalizing the empty
// (root) prefix to a non-nil empty slice so a violation always carries a
// non-nil witness.
func witness(prefix []sim.Decision) []sim.Decision {
	return append([]sim.Decision{}, prefix...)
}

// sleepEntry is one member of a sleep set: a decision that an earlier
// sibling branch already explored, together with the footprint its step
// had when it entered the set. The footprint stays valid while the entry
// stays asleep: an entry is dropped as soon as a dependent step is
// taken, and commuting with independent steps cannot change what the
// step reads or writes.
type sleepEntry struct {
	d sim.Decision
	a sim.Access
}

// dependent reports whether the two decisions (with their footprints)
// must not be commuted. Steps of one process are ordered; crash and
// recover decisions are visible to every property and change
// enabledness; unknown footprints conflict with everything; an
// invocation and a response of different processes must keep their order
// (it is the real-time precedence properties observe); and two
// base-object accesses conflict when they touch the same object and
// either writes.
func dependent(d1 sim.Decision, a1 sim.Access, d2 sim.Decision, a2 sim.Access) bool {
	if d1.Proc == d2.Proc || d1.Crash || d2.Crash || a1.Crash || a2.Crash {
		return true
	}
	if d1.Recover || d2.Recover || a1.Recover || a2.Recover {
		return true
	}
	if !a1.Known || !a2.Known {
		return true
	}
	if (a1.Invoked && a2.Responded) || (a1.Responded && a2.Invoked) {
		return true
	}
	return a1.Conflicts(a2)
}

// filterSleep keeps the entries independent of the step (d, a) just
// taken. It always allocates, so the parent's set is never mutated.
func filterSleep(sleep []sleepEntry, d sim.Decision, a sim.Access) []sleepEntry {
	var out []sleepEntry
	for _, z := range sleep {
		if !dependent(z.d, z.a, d, a) {
			out = append(out, z)
		}
	}
	return out
}

// inSleep reports whether decision d is asleep.
func inSleep(sleep []sleepEntry, d sim.Decision) bool {
	for _, z := range sleep {
		if z.d == d {
			return true
		}
	}
	return false
}

// engine carries the state one exploration shares across its recursion
// (and, at Workers > 1, across its workers).
type engine struct {
	cfg     Config
	visited *visitedSet // non-nil iff cfg.Cache
}

// Run explores exhaustively. It returns the statistics and the first
// check or monitor error, if any (with Stats.Witness set).
func Run(cfg Config) (*Stats, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("explore: Procs must be >= 1")
	}
	if cfg.NewMonitors == nil || cfg.NewObject == nil || cfg.NewEnv == nil {
		return nil, fmt.Errorf("explore: NewMonitors, NewObject and NewEnv must be set")
	}
	g := &engine{cfg: cfg}
	if cfg.Cache {
		if cfg.Visited != nil {
			g.visited = cfg.Visited.set
		} else {
			g.visited = newVisitedSet()
		}
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > 1 {
		return g.runParallel(workers)
	}
	st := &Stats{Workers: 1}
	ex, err := newSessionExec(g, st)
	if err != nil {
		return st, err
	}
	defer ex.sess.Close()
	err = g.runTask(nil, ex, &wsTask{ms: cfg.NewMonitors()}, st)
	return st, err
}

// budgets tallies a prefix's non-step decisions (crash and recover
// budget already spent) and its step count.
func budgets(prefix []sim.Decision) (steps, crashes, recoveries int) {
	for _, d := range prefix {
		switch {
		case d.Crash:
			crashes++
		case d.Recover:
			recoveries++
		default:
			steps++
		}
	}
	return
}

// pathState is one worker's DFS bookkeeping: the decision stack of the
// current prefix (shared across the recursion — witnesses and task
// prefixes copy out of it), the preorder path stack (used only under
// parallelism), and the running non-crash step count.
type pathState struct {
	prefix []sim.Decision
	path   []int
	steps  int
}

// runTask explores the subtree rooted at the task's prefix with the
// given exec. w is nil on the sequential path.
func (g *engine) runTask(w *wsWorker, ex *sessionExec, t *wsTask, st *Stats) error {
	node, err := ex.task(t.prefix, t.parentEvents)
	if err != nil {
		return g.fail(w, t.path, fmt.Errorf("explore: replay failed: %w", err))
	}
	ps := &pathState{
		prefix: t.prefix[:len(t.prefix):len(t.prefix)],
		path:   t.path[:len(t.path):len(t.path)],
	}
	ps.steps, _, _ = budgets(t.prefix)
	_, err = g.explore(w, ex, node, ps, t.crashes, t.recoveries, t.ms, t.sleep, st)
	ex.recycle(node)
	if err != nil {
		// A failed branch's sets may back its error: fork into fresh ones.
		clear(ex.slots)
	}
	return err
}

// ctxErr polls the optional context.
func (g *engine) ctxErr() error {
	if g.cfg.Ctx != nil {
		return g.cfg.Ctx.Err()
	}
	return nil
}

// stepDelta feeds the node's new events (its delta since the parent)
// into the monitor set; a violation is wrapped with its location and
// recorded in the stats.
func stepDelta(ms MonitorSet, node *nodeInfo, h history.History, prefix []sim.Decision, st *Stats) error {
	parentEvents := len(h) - len(node.delta)
	for k := range node.delta {
		st.Events++
		if err := ms.Step(node.delta[k]); err != nil {
			w := witness(prefix)
			st.Witness = w
			// Copy the history out of the session's live buffer: the
			// witness outlives this node, and under parallelism the
			// session keeps truncating and extending the backing while
			// other workers drain.
			return &Violation{Schedule: w, H: append(history.History(nil), h...), EventIndex: parentEvents + k, Cause: err}
		}
	}
	return nil
}

// combineKey mixes the configuration fingerprint with the monitor
// digest into one cache key.
func combineKey(fp, digest uint64) uint64 {
	return history.DigestWord(fp, digest)
}

// explore visits the exec's current node and recurses into its
// children (descending by enter, backtracking by leave). w is the
// executing worker (nil on the sequential path); node is the info the
// exec reported on arrival; ps carries the shared prefix/path stacks;
// ms is the monitor set as of the parent; sleep is the sleep set
// inherited from the parent, not yet filtered by this node's own last
// step. It reports whether the subtree was explored to completion: a
// parallel cutoff anywhere beneath this node makes it incomplete, and
// an incomplete subtree must never be published to the visited set —
// even when the node's own child loop never re-checked the cutoff (e.g.
// the abandoned child was its last).
func (g *engine) explore(w *wsWorker, ex *sessionExec, node *nodeInfo, ps *pathState, crashes, recoveries int, ms MonitorSet, sleep []sleepEntry, st *Stats) (bool, error) {
	st.Prefixes++
	if err := g.ctxErr(); err != nil {
		return false, g.fatal(w, err)
	}
	if err := stepDelta(ms, node, ex.sess.History(), ps.prefix, st); err != nil {
		return false, g.fail(w, ps.path, err)
	}
	if ps.steps >= g.cfg.Depth {
		return true, nil
	}
	// Children are indexed, not materialized (the hot loop allocates no
	// per-node slices): ready-process steps first, then — crash budget
	// permitting — crashes of the same processes, then — recovery budget
	// permitting — recoveries of the crashed processes. Crash only ready
	// processes: idle and blocked processes take no further steps, so
	// crashing them duplicates sibling subtrees.
	nready := len(node.ready)
	nchildren := nready
	crashBase := -1
	if crashes < g.cfg.Crashes {
		crashBase = nchildren
		nchildren += nready
	}
	recoverBase := -1
	if recoveries < g.cfg.Recoveries && len(node.crashed) > 0 {
		recoverBase = nchildren
		nchildren += len(node.crashed)
	}
	childAt := func(i int) sim.Decision {
		switch {
		case i < nready:
			return sim.Decision{Proc: node.ready[i]}
		case recoverBase >= 0 && i >= recoverBase:
			return sim.Decision{Proc: node.crashed[i-recoverBase], Recover: true}
		default:
			return sim.Decision{Proc: node.ready[i-crashBase], Crash: true}
		}
	}
	var z []sleepEntry
	if g.cfg.POR && len(ps.prefix) > 0 {
		z = filterSleep(sleep, ps.prefix[len(ps.prefix)-1], node.access)
	}
	// Whether a child is asleep depends only on the inherited set z:
	// entries appended for explored siblings are those siblings'
	// decisions, which never equal a later child's. So the children that
	// will actually be explored are known up front.
	nlive, firstLive, lastLive := 0, -1, -1
	for i := 0; i < nchildren; i++ {
		if !g.cfg.POR || !inSleep(z, childAt(i)) {
			if firstLive < 0 {
				firstLive = i
			}
			lastLive = i
			nlive++
		}
	}
	st.Pruned += nchildren - nlive
	if nlive == 0 {
		return true, nil
	}

	// State cache: if an equivalent configuration — same fingerprint,
	// same monitor residual state — was already fully explored with at
	// least this much depth and crash budget remaining and under a sleep
	// set no larger than z, this subtree adds nothing. Otherwise explore
	// it and, if it completes cleanly, publish it. zStart is clipped so
	// the loop's appends below cannot mutate the stored set.
	var ckey uint64
	var zStart []sleepEntry
	remDepth, remCrashes := g.cfg.Depth-ps.steps, g.cfg.Crashes-crashes
	remRecoveries := g.cfg.Recoveries - recoveries
	cacheable := false
	if g.visited != nil && node.fped {
		if d, ok := ms.(history.Digester); ok {
			if dg, ok := d.StateDigest(); ok {
				ckey = combineKey(node.fp, dg)
				zStart = z[:len(z):len(z)]
				if g.visited.hit(ckey, remDepth, remCrashes, remRecoveries, zStart) {
					st.CacheHits++
					return true, nil
				}
				cacheable = true
			}
		}
	}

	// A mark is only needed when more than one child will be explored
	// (or probed) from this node: a single live child is entered
	// directly from the current position and never returned to.
	var mark *sim.Mark
	if nlive > 1 {
		mark = ex.sess.Mark()
	}

	// Under parallelism, split the later live children off as stealable
	// tasks when the worker's deque has room (and the subtrees are worth
	// the task overhead), exploring only the first live child inline.
	// Only this path materializes the child list.
	spawned := 0
	if w != nil && nlive > 1 && remDepth >= minSplitDepth {
		children := make([]sim.Decision, nchildren)
		live := make([]int, 0, nlive)
		for i := range children {
			children[i] = childAt(i)
			if !g.cfg.POR || !inSleep(z, children[i]) {
				live = append(live, i)
			}
		}
		spawned = g.trySplit(w, ex, mark, ps, crashes, recoveries, ms, z, children, live)
	}

	complete := true
	for i := 0; i < nchildren; i++ {
		d := childAt(i)
		if g.cfg.POR && inSleep(z, d) {
			continue // already counted in Pruned above
		}
		if spawned > 0 && i > firstLive {
			break // later live children were handed to the pool
		}
		if w != nil {
			ps.path = append(ps.path, i)
			if w.pool.cutoff(ps.path) {
				// Everything from here on is preorder-after a failure
				// already found; the subtree is abandoned, so neither it
				// nor any ancestor may be published as fully explored.
				ps.path = ps.path[:len(ps.path)-1]
				complete = false
				break
			}
		}
		cms := ms
		if i < lastLive && spawned == 0 {
			cms = ex.fork(ms, len(ps.prefix)) // the last explored child inherits the set without a copy
		}
		nextCrashes, nextRecoveries := crashes, recoveries
		switch {
		case d.Crash:
			nextCrashes++
		case d.Recover:
			nextRecoveries++
		}
		if mark != nil {
			if err := ex.leave(mark); err != nil {
				return false, g.fatal(w, err)
			}
		}
		cn, err := ex.enter(d)
		if err != nil {
			return false, g.fail(w, ps.path, fmt.Errorf("explore: replay failed: %w", err))
		}
		ps.prefix = append(ps.prefix, d)
		if !d.Crash && !d.Recover {
			ps.steps++
		}
		cc, err := g.explore(w, ex, cn, ps, nextCrashes, nextRecoveries, cms, z, st)
		ps.prefix = ps.prefix[:len(ps.prefix)-1]
		if !d.Crash && !d.Recover {
			ps.steps--
		}
		if w != nil {
			ps.path = ps.path[:len(ps.path)-1]
		}
		if err != nil {
			return false, err
		}
		if !cc {
			// The child's subtree was abandoned by a cutoff below it; this
			// node's subtree is incomplete even if its own loop never
			// re-checks the cutoff (the abandoned child may be its last).
			complete = false
		}
		// An unknown footprint is dependent on every step, so the next
		// child's filterSleep would drop the entry at once.
		if g.cfg.POR && !d.Crash && !d.Recover && cn.access.Known {
			z = append(z, sleepEntry{d: d, a: cn.access})
		}
		ex.recycle(cn)
	}
	if mark != nil {
		ex.sess.Release(mark)
	}
	if spawned > 0 {
		// Later live children were handed to the pool and may not have
		// run yet, so neither this node nor any ancestor has seen its
		// whole subtree: report it incomplete so no one on this path
		// publishes a visited-set entry covering pending tasks. (A stored
		// entry for a subtree with unexplored descendants could prune the
		// very task meant to explore them — two such entries can even
		// cross-prune each other — losing violations.)
		complete = false
	}
	if cacheable && complete {
		g.visited.store(ckey, remDepth, remCrashes, remRecoveries, zStart)
	}
	return complete, nil
}

// fail wraps a node failure with its preorder position under
// parallelism; sequential exploration returns the error unchanged.
func (g *engine) fail(w *wsWorker, path []int, err error) error {
	if w == nil {
		return err
	}
	return &nodeError{path: append([]int(nil), path...), err: err}
}

// fatal marks an exploration-wide abort (context cancellation).
func (g *engine) fatal(w *wsWorker, err error) error {
	if w == nil {
		return err
	}
	return &fatalError{err: err}
}
