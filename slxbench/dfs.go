package main

import (
	"time"

	"repro/internal/history"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/slx"
	"repro/slx/run"
)

// The benchmark-owned DFS walks a job's schedule tree the way the
// sequential exhaustive engine does without POR and cache — the same
// children in the same order, a mark only where more than one child is
// entered, a fingerprint per node when the cache would take one, and a
// stop at the first monitor violation — but calls sim.Session directly,
// so Extend, Mark, Restore and Fingerprint can be timed one by one. It
// walks only jobs the engine runs on a session, and never prunes: with POR
// or the cache on, it walks the unreduced tree.

// clock accumulates one session operation.
type clock struct{ ns, calls int64 }

func (c *clock) since(t0 time.Time) {
	c.ns += int64(time.Since(t0))
	c.calls++
}

// dfsStats is what one benchmark DFS measured.
type dfsStats struct {
	nodes                              int
	violated                           bool
	extend, mark, restore, fingerprint clock
	// unreduced: the engine walks the same tree (no POR, no cache), so
	// the call counts are the engine's too.
	unreduced bool
	key       string // the job's jobKey
	// simSelfMs is the session's own time on an unreduced tree: its
	// operations less the object and environment calls made inside them.
	simSelfMs float64
}

// sessionMs is the time of all session operations.
func (st dfsStats) sessionMs() float64 {
	return float64(st.extend.ns+st.mark.ns+st.restore.ns+st.fingerprint.ns) / 1e6
}

// dfsJob is a job's tree: its factories, bounds and property.
type dfsJob struct {
	procs, depth, crashes, recoveries int
	newObject                         func() run.Object
	newEnv                            func() run.Environment
	prop                              slx.Property
	fingerprint                       bool // the engine fingerprints every node (cache on)
	session                           bool // the engine runs this job on a session
}

// newDFSJob resolves a job spec into its tree.
func newDFSJob(s service.JobSpec) (dfsJob, error) {
	c, prop, err := checkerFor(s)
	if err != nil {
		return dfsJob{}, err
	}
	cfg, err := factories(c)
	if err != nil {
		return dfsJob{}, err
	}
	j := dfsJob{
		procs: cfg.Procs, depth: s.Depth, crashes: s.Crashes, recoveries: s.Recoveries,
		newObject: cfg.NewObject, newEnv: cfg.NewEnv, prop: prop, fingerprint: s.Cache,
	}
	if j.depth == 0 {
		j.depth = 8 // slx.WithDepth's default
	}
	j.session = !s.Replay && run.CanSnapshot(j.newObject())
	if _, ok := j.newEnv().(run.RewindableEnv); j.session && j.recoveries > 0 && !ok {
		j.session = false
	}
	return j, nil
}

// runDFS explores the job's tree on a session and reports what it
// measured. The job must run on a session (j.session).
func runDFS(j dfsJob) (dfsStats, error) {
	var st dfsStats
	s, err := sim.NewSession(sim.SessionConfig{
		Procs: j.procs, Object: j.newObject(), NewEnv: j.newEnv, Fingerprint: j.fingerprint,
	})
	if err != nil {
		return st, err
	}
	defer s.Close()
	d := &dfs{j: j, s: s, st: &st}
	d.fingerprintNode()
	err = d.visit(0, 0, 0, j.prop.Spawn(), s.History(), s.ReadyAppend(nil), s.CrashedAppend(nil))
	return st, err
}

type dfs struct {
	j  dfsJob
	s  *sim.Session
	st *dfsStats
}

// visit counts the node, feeds its events to the monitor and explores
// its children: steps of ready processes, then crashes of the same
// processes, then recoveries of crashed ones, within the budgets.
func (d *dfs) visit(steps, crashes, recs int, ms slx.Monitor, delta history.History, ready, crashed []int) error {
	d.st.nodes++
	for _, e := range delta {
		if !ms.Step(e) {
			d.st.violated = true
			return nil
		}
	}
	if steps >= d.j.depth {
		return nil
	}
	var children []sim.Decision
	for _, p := range ready {
		children = append(children, sim.Decision{Proc: p})
	}
	if crashes < d.j.crashes {
		for _, p := range ready {
			children = append(children, sim.Decision{Proc: p, Crash: true})
		}
	}
	if recs < d.j.recoveries {
		for _, p := range crashed {
			children = append(children, sim.Decision{Proc: p, Recover: true})
		}
	}
	var m *sim.Mark
	if len(children) > 1 {
		m = d.mark()
	}
	for i, c := range children {
		cms := ms
		if i < len(children)-1 {
			cms = ms.Fork()
		}
		if m != nil {
			if err := d.restore(m); err != nil {
				return err
			}
		}
		cdelta, cready, ccrashed, err := d.enter(c)
		if err != nil {
			return err
		}
		ns, nc, nr := steps, crashes, recs
		switch {
		case c.Crash:
			nc++
		case c.Recover:
			nr++
		default:
			ns++
		}
		if err := d.visit(ns, nc, nr, cms, cdelta, cready, ccrashed); err != nil || d.st.violated {
			return err
		}
	}
	if m != nil {
		d.s.Release(m)
	}
	return nil
}

// The session operations, each timed.

func (d *dfs) fingerprintNode() {
	if d.j.fingerprint {
		t0 := time.Now()
		d.s.Fingerprint()
		d.st.fingerprint.since(t0)
	}
}

func (d *dfs) enter(c sim.Decision) (history.History, []int, []int, error) {
	t0 := time.Now()
	info, err := d.s.Extend(c)
	d.st.extend.since(t0)
	if err != nil {
		return nil, nil, nil, err
	}
	d.fingerprintNode()
	return info.Delta, d.s.ReadyAppend(nil), d.s.CrashedAppend(nil), nil
}

func (d *dfs) mark() *sim.Mark {
	t0 := time.Now()
	m := d.s.Mark()
	d.st.mark.since(t0)
	return m
}

func (d *dfs) restore(m *sim.Mark) error {
	t0 := time.Now()
	_, err := d.s.Restore(m)
	d.st.restore.since(t0)
	return err
}
