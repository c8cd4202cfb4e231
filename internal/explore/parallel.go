package explore

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Parallel exploration: a bounded work-stealing scheduler over subtree
// tasks. Each worker runs the same DFS as sequential exploration; at a
// branch point it keeps the first live child inline and, while its deque
// has room, publishes the remaining sibling subtrees as stealable tasks
// (monitor sets forked, sleep sets precomputed via footprint probes).
// Idle workers pop their own deque newest-first (depth-first locality)
// and steal from the longest victim deque oldest-first (the shallowest,
// largest subtrees). All workers share the engine's visited set.
//
// Witness determinism: sequential DFS reports the failure at the
// preorder-least prefix, because it stops at the first one it reaches.
// The pool reproduces that schedule-independently by tracking the
// preorder-least failure found so far and cutting off exactly the work
// that is preorder-after it: every node preorder-before the current best
// is still explored, so when the pool drains, the recorded failure is
// the preorder-least one in the whole tree — the same prefix, and the
// same error, sequential exploration reports. (Under Config.Cache the
// shared visited set makes which equivalent witness is reached
// timing-dependent; verdicts are unaffected.)

const (
	// minSplitDepth is the minimum remaining depth at which a worker
	// splits sibling subtrees into tasks: shallower subtrees cost more
	// in task and probe overhead than they recoup in balance.
	minSplitDepth = 2
	// wsDequeCap bounds each worker's deque; a worker whose deque is
	// full explores its children inline like sequential DFS.
	wsDequeCap = 256
)

// wsTask is one stealable subtree: the schedule prefix of its root, the
// root's preorder path (child ordinals), its crash and recovery budgets
// spent, the parent's event count, the forked monitor set as of the
// parent, and the inherited sleep set.
type wsTask struct {
	prefix       []sim.Decision
	path         []int
	crashes      int
	recoveries   int
	parentEvents int
	ms           MonitorSet
	sleep        []sleepEntry
}

// wsWorker is the per-worker handle threaded through the DFS.
type wsWorker struct {
	id   int
	pool *wsPool
}

// wsFailure is a candidate result: the preorder position of the failing
// node, the original error, and its witness.
type wsFailure struct {
	path    []int
	err     error
	witness []sim.Decision
}

// nodeError tags a node failure (violation, check error, replay error)
// with its preorder position so the pool can order candidates.
type nodeError struct {
	path []int
	err  error
}

func (e *nodeError) Error() string { return e.err.Error() }
func (e *nodeError) Unwrap() error { return e.err }

// fatalError tags an exploration-wide abort (context cancellation).
type fatalError struct{ err error }

func (e *fatalError) Error() string { return e.err.Error() }
func (e *fatalError) Unwrap() error { return e.err }

// cmpPath orders preorder positions: lexicographic on child ordinals,
// with an ancestor (proper prefix) preceding its descendants.
func cmpPath(a, b []int) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// wsPool is the shared scheduler state.
type wsPool struct {
	g    *engine
	mu   sync.Mutex
	cond *sync.Cond
	// deques[i] is worker i's deque: the owner pushes and pops at the
	// tail, thieves take from the head.
	deques      [][]*wsTask
	outstanding int // queued + running tasks
	best        *wsFailure
	fatalErr    error
	total       *Stats

	// Lock-free snapshots of best.path and the abort flag for cutoff,
	// which runs on every explored node: a stale read only delays a
	// cutoff (extra work, never a wrong skip), so the hot path need not
	// contend on mu with the deque operations.
	bestPath atomic.Pointer[[]int]
	aborted  atomic.Bool
}

// runParallel explores the tree with the work-stealing pool.
func (g *engine) runParallel(workers int) (*Stats, error) {
	total := &Stats{Workers: workers}
	p := &wsPool{g: g, deques: make([][]*wsTask, workers), total: total}
	p.cond = sync.NewCond(&p.mu)
	p.deques[0] = append(p.deques[0], &wsTask{ms: g.cfg.NewMonitors()}) // the root subtree: the whole tree
	p.outstanding = 1
	// A loop that starts after the pool has drained exits immediately.
	RunLoops(workers, g.cfg.Spawn, p.run)
	if p.fatalErr != nil {
		return total, p.fatalErr
	}
	if p.best != nil {
		total.Witness = p.best.witness
		return total, p.best.err
	}
	return total, nil
}

// RunLoops runs the worker loops loop(0), ..., loop(n-1) and returns
// once every loop that ran has returned. Loop 0 runs inline on the
// calling goroutine, so the work always makes progress; the others are
// offered to spawn (an external executor, such as slxd's pool), or
// started as goroutines when spawn is nil. A declined offer never runs,
// so the loops must share their work dynamically, and a loop that
// starts after the work is done must return at once.
func RunLoops(n int, spawn func(loop func()) bool, loop func(id int)) {
	var wg sync.WaitGroup
	for id := 1; id < n; id++ {
		wg.Add(1)
		run := func() {
			defer wg.Done()
			loop(id)
		}
		if spawn == nil {
			go run()
		} else if !spawn(run) {
			wg.Done()
		}
	}
	loop(0)
	wg.Wait()
}

// run is one worker's loop: take a task, explore its subtree, report.
// Each worker owns one exec for its lifetime: a stolen task seeds the
// session by one replay of the split prefix, then the subtree descends
// incrementally.
func (p *wsPool) run(id int) {
	w := &wsWorker{id: id, pool: p}
	var ex *sessionExec
	defer func() {
		if ex != nil {
			ex.sess.Close()
		}
	}()
	for {
		t := p.next(id)
		if t == nil {
			return
		}
		st := &Stats{}
		if ex == nil {
			var err error
			if ex, err = newSessionExec(p.g, st); err != nil {
				p.finish(st, &fatalError{err: err})
				continue
			}
		} else {
			ex.st = st // one exec across tasks, each with its own Stats
		}
		err := p.g.runTask(w, ex, t, st)
		p.finish(st, err)
	}
}

// next returns the worker's next task: its own newest, else a steal,
// else it waits until work appears or the pool drains (nil).
func (p *wsPool) next(id int) *wsTask {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.fatalErr != nil {
			return nil
		}
		if q := p.deques[id]; len(q) > 0 {
			t := q[len(q)-1]
			p.deques[id] = q[:len(q)-1]
			if p.skipLocked(t) {
				continue
			}
			return t
		}
		victim, most := -1, 0
		for j := range p.deques {
			if j != id && len(p.deques[j]) > most {
				victim, most = j, len(p.deques[j])
			}
		}
		if victim >= 0 {
			q := p.deques[victim]
			t := q[0]
			p.deques[victim] = q[1:]
			if p.skipLocked(t) {
				continue
			}
			return t
		}
		if p.outstanding == 0 {
			p.cond.Broadcast()
			return nil
		}
		p.cond.Wait()
	}
}

// skipLocked drops a task that is preorder-after the best failure found
// so far (its subtree cannot improve the result). Caller holds mu.
func (p *wsPool) skipLocked(t *wsTask) bool {
	if p.best == nil || cmpPath(t.path, p.best.path) < 0 {
		return false
	}
	p.outstanding--
	if p.outstanding == 0 {
		p.cond.Broadcast()
	}
	return true
}

// cutoff reports whether a node at path should not be explored: the
// pool is aborting, or a failure preorder-before (or at) it is already
// known. It reads the atomic snapshots, not mu — see their field
// comment for why staleness is harmless.
func (p *wsPool) cutoff(path []int) bool {
	if p.aborted.Load() {
		return true
	}
	best := p.bestPath.Load()
	return best != nil && cmpPath(path, *best) >= 0
}

// room reports whether worker id's deque can take n more tasks. Only
// the owner pushes, so a true result cannot be invalidated by a racing
// push (steals only shrink the deque).
func (p *wsPool) room(id, n int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.deques[id])+n <= wsDequeCap
}

// pushAll publishes tasks to worker id's deque tail. The tasks are a
// node's later siblings in reverse preorder, so the owner's next tail
// pop — after its inline subtree drains — is the preorder-least sibling.
func (p *wsPool) pushAll(id int, tasks []*wsTask) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(tasks) - 1; i >= 0; i-- {
		p.deques[id] = append(p.deques[id], tasks[i])
	}
	p.outstanding += len(tasks)
	p.cond.Broadcast()
}

// finish merges a completed task's statistics and classifies its error:
// fatal aborts the pool, node failures compete for the preorder-least
// slot.
func (p *wsPool) finish(st *Stats, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.total.Prefixes += st.Prefixes
	p.total.Steps += st.Steps
	p.total.Events += st.Events
	p.total.Resims += st.Resims
	p.total.Pruned += st.Pruned
	p.total.CacheHits += st.CacheHits
	if err != nil {
		var fe *fatalError
		var ne *nodeError
		switch {
		case errors.As(err, &fe):
			if p.fatalErr == nil {
				p.fatalErr = fe.err
				p.aborted.Store(true)
			}
		case errors.As(err, &ne):
			if p.best == nil || cmpPath(ne.path, p.best.path) < 0 {
				p.best = &wsFailure{path: ne.path, err: ne.err, witness: st.Witness}
				p.bestPath.Store(&p.best.path)
			}
		default:
			if p.fatalErr == nil {
				p.fatalErr = err
				p.aborted.Store(true)
			}
		}
	}
	p.outstanding--
	if p.outstanding == 0 || p.fatalErr != nil {
		p.cond.Broadcast()
	}
}

// trySplit hands a node's later live children to the pool as stealable
// tasks, returning how many were spawned (0 when the deque is full).
// Under POR each spawned child's sleep set needs the first-step
// footprints of its earlier live siblings — which have not run yet — so
// they are probed first: the exec rewinds to the mark and extends one
// step per sibling (counted as re-simulation).
func (g *engine) trySplit(w *wsWorker, ex *sessionExec, mark *sim.Mark, ps *pathState, crashes, recoveries int, ms MonitorSet, z []sleepEntry, children []sim.Decision, live []int) int {
	n := len(live) - 1
	if !w.pool.room(w.id, n) {
		return 0
	}
	parentEvents := len(ex.sess.History())
	var probes []sim.Access // aligned with live[:len(live)-1]
	if g.cfg.POR {
		probes = make([]sim.Access, len(live)-1)
		for j, ci := range live[:len(live)-1] {
			if children[ci].Crash || children[ci].Recover {
				continue
			}
			// A failed probe leaves the footprint unknown, which only
			// makes the spawned sibling conservatively dependent.
			probes[j], _ = ex.probe(mark, children[ci])
		}
	}
	prefix := ps.prefix[:len(ps.prefix):len(ps.prefix)]
	path := ps.path[:len(ps.path):len(ps.path)]
	tasks := make([]*wsTask, 0, n)
	sl := z[:len(z):len(z)]
	for j := 1; j < len(live); j++ {
		ci := live[j]
		d := children[ci]
		if g.cfg.POR {
			// The sibling explored before this child goes to sleep for it,
			// exactly as the sequential loop would append it.
			if prev := children[live[j-1]]; !prev.Crash && !prev.Recover && probes[j-1].Known {
				sl = append(sl[:len(sl):len(sl)], sleepEntry{d: prev, a: probes[j-1]})
			}
		}
		cr, rv := crashes, recoveries
		switch {
		case d.Crash:
			cr++
		case d.Recover:
			rv++
		}
		tasks = append(tasks, &wsTask{
			prefix:       append(prefix, d),
			path:         append(path, ci),
			crashes:      cr,
			recoveries:   rv,
			parentEvents: parentEvents,
			ms:           ms.Fork(nil),
			sleep:        sl,
		})
	}
	w.pool.pushAll(w.id, tasks)
	return n
}
