package explore

import (
	"fmt"

	"repro/internal/history"
	"repro/internal/sim"
)

// nodeInfo is what the DFS needs to know about the node an exec move
// just reached.
type nodeInfo struct {
	// delta holds the events recorded since the node's parent
	// (capacity-clipped; monitors may retain it).
	delta history.History
	// access is the footprint of the node's last decision (zero at the
	// root or for untracked objects).
	access sim.Access
	// ready lists the processes that can step from this node, sorted.
	ready []int
	// crashed lists the crashed processes (recover candidates), sorted.
	// Only populated when the exploration has a recovery budget.
	crashed []int
	// fp/fped carry the configuration fingerprint under Config.Cache.
	fp   uint64
	fped bool
}

// sessionExec executes one worker's DFS path moves on a persistent
// sim.Session: it descends by extending the session one decision at a
// time and backtracks by restoring marks. The session's restore
// strategy (snapshot or from root, see sim.NewSession) decides what a
// backtrack costs; the DFS never sees the difference.
type sessionExec struct {
	g    *engine
	st   *Stats
	sess *sim.Session
	root *sim.Mark
	// nifree pools nodeInfos recycled by the DFS (live nodeInfos are
	// bounded by the exploration depth, so the pool stays tiny); each
	// reuse also reuses the ready-slice backing.
	nifree []*nodeInfo
	// slots[k] is the monitor set last forked for a child of a node at
	// depth k. Only one node per depth is on the DFS path, and it forks
	// for its next child only after the previous child's subtree is
	// done, so the set in the slot is free to be forked into.
	slots []MonitorSet
}

func newSessionExec(g *engine, st *Stats) (*sessionExec, error) {
	sess, err := sim.NewSession(sim.SessionConfig{
		Procs:       g.cfg.Procs,
		Object:      g.cfg.NewObject(),
		NewObject:   g.cfg.NewObject,
		NewEnv:      g.cfg.NewEnv,
		Fingerprint: g.cfg.Cache,
	})
	if err != nil {
		return nil, err
	}
	return &sessionExec{g: g, st: st, sess: sess, root: sess.Mark()}, nil
}

// task positions the exec at the given prefix — a stolen subtree's
// root, or the exploration root for an empty prefix — and returns its
// node info. parentEvents is the number of history events the prefix's
// parent recorded (0 at the root): the returned delta starts there.
func (e *sessionExec) task(prefix []sim.Decision, parentEvents int) (*nodeInfo, error) {
	if err := e.leave(e.root); err != nil {
		return nil, err
	}
	if len(prefix) == 0 {
		return e.node(e.sess.History(), sim.Access{}), nil
	}
	// Seed the split prefix up to the task node's parent with one
	// incremental replay (re-simulation, not exploration), then enter
	// the node itself as a regular explored edge.
	for _, d := range prefix[:len(prefix)-1] {
		info, err := e.sess.Extend(d)
		e.st.Resims += info.Steps
		if err != nil {
			return nil, err
		}
	}
	if got := len(e.sess.History()); got != parentEvents {
		return nil, fmt.Errorf("sim session desynchronized: seed replay recorded %d events, split recorded %d", got, parentEvents)
	}
	return e.enter(prefix[len(prefix)-1])
}

// enter moves from the current node to its child d.
func (e *sessionExec) enter(d sim.Decision) (*nodeInfo, error) {
	info, err := e.sess.Extend(d)
	e.st.Steps += info.Steps
	if err != nil {
		return nil, err
	}
	return e.node(info.Delta, info.Access), nil
}

func (e *sessionExec) node(delta history.History, a sim.Access) *nodeInfo {
	var ni *nodeInfo
	if n := len(e.nifree); n > 0 {
		ni = e.nifree[n-1]
		e.nifree = e.nifree[:n-1]
		*ni = nodeInfo{ready: ni.ready[:0], crashed: ni.crashed[:0]}
	} else {
		ni = &nodeInfo{}
	}
	ni.delta, ni.access = delta, a
	ni.ready = e.sess.ReadyAppend(ni.ready)
	if e.g.cfg.Recoveries > 0 {
		ni.crashed = e.sess.CrashedAppend(ni.crashed)
	}
	if e.g.cfg.Cache {
		ni.fp, ni.fped = e.sess.Fingerprint()
	}
	return ni
}

// fork copies ms, the set of a node at depth k, for one of the node's
// children, into the slot for depth k.
func (e *sessionExec) fork(ms MonitorSet, k int) MonitorSet {
	for len(e.slots) <= k {
		e.slots = append(e.slots, nil)
	}
	e.slots[k] = ms.Fork(e.slots[k])
	return e.slots[k]
}

// recycle returns a node info the DFS is done with for reuse by a later
// task or enter.
func (e *sessionExec) recycle(ni *nodeInfo) { e.nifree = append(e.nifree, ni) }

// leave returns to a marked ancestor of the current position (a no-op
// when already there). The steps a from-root rebuild re-executes count
// toward both Steps and Resims.
func (e *sessionExec) leave(m *sim.Mark) error {
	n, err := e.sess.Restore(m)
	e.st.Steps += n
	e.st.Resims += n
	return err
}

// probe reports the footprint of child d's first step from the marked
// node without advancing the exploration; the exec is left at an
// unspecified position (callers leave(m) before the next enter). Probe
// work counts toward Resims only, never Steps.
func (e *sessionExec) probe(m *sim.Mark, d sim.Decision) (sim.Access, error) {
	n, err := e.sess.Restore(m)
	e.st.Resims += n
	if err != nil {
		return sim.Access{}, err
	}
	info, err := e.sess.Extend(d)
	e.st.Resims += info.Steps
	return info.Access, err
}
