package repro_test

// Every in-tree object is written once, as a frame machine, and keeps
// its state in the cells of one base.Mem. The translation pin covers
// the objects that used to exist only as a blocking Apply, plus I12,
// whose frames hold the snapshot's sub-frames: every figure in its
// table was recorded at the commit that still ran the blocking forms,
// so a translation that moves, adds or drops a single step changes a
// digest or a counter. The goroutine probe checks that every object's
// operations run on the dispatch loop itself, never on the
// blocking-Apply adapter's goroutines. The restore audit checks every
// object's derived snapshot hook node by node against from-root runs.

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/consensus"
	"repro/internal/history"
	"repro/internal/mutex"
	"repro/internal/queue"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/tm"
	"repro/slx"
	"repro/slx/check"
	"repro/slx/run"
)

// pinCase is one pinned object: its seeded sim.Run family and one small
// Explore, with the figures the blocking form produced.
type pinCase struct {
	name   string
	newObj func(n int) sim.Object
	newEnv func(seed int64, n int) sim.Environment
	// explore configures the pinned Explore (object, environment,
	// processes and depth); prop is its property.
	explore []slx.Option
	prop    func() slx.Property
	// replay pins the Explore on the from-root strategy, for objects
	// whose figures were recorded while they explored from the root
	// and that now explore on snapshots. The default Explore must then
	// reach the same prefixes and verdict without re-simulating a step.
	replay bool

	digest                     uint64
	prefixes, simSteps, resims int
	ok                         bool
}

// proposeEnv proposes p-1 for every process p, over and over.
func proposeEnv(_ int64, n int) sim.Environment {
	vals := make(map[int]history.Value, n)
	for p := 1; p <= n; p++ {
		vals[p] = p - 1
	}
	return consensus.ProposeForever(vals)
}

// txnEnv loops seeded two-access transactions over two variables.
func txnEnv(seed int64, n int) sim.Environment {
	return tm.TxnLoop(tm.RandomWorkload(seed, n, 2, 2))
}

// lockEnv alternates acquire and release.
func lockEnv(_ int64, n int) sim.Environment { return mutex.AcquireReleaseLoop(n) }

func newI12SW(n int) sim.Object { return tm.NewI12WithSnapshot(n, snapshot.New("R", n, 0)) }

// pinExplore is the Explore part of a pin case.
func pinExplore(procs, depth int, obj func() sim.Object, env func() sim.Environment) []slx.Option {
	return []slx.Option{
		slx.WithProcs(procs),
		slx.WithDepth(depth),
		slx.WithObject(obj),
		slx.WithEnv(env),
	}
}

func pinCases() []pinCase {
	proposeOnce := func(n int) func() sim.Environment {
		return func() sim.Environment {
			vals := make(map[int]history.Value, n)
			for p := 1; p <= n; p++ {
				vals[p] = p
			}
			return consensus.ProposeOnce(vals)
		}
	}
	txnPair := func() sim.Environment {
		return tm.TxnLoop(map[int]tm.Txn{
			1: {Accesses: []tm.Access{{Write: true, Var: "x", Val: 1}}},
			2: {Accesses: []tm.Access{{Var: "x"}}},
		})
	}
	// dstmXYYX is slxbench's dstm:xy/yx job: process 1 reads x and
	// writes y, process 2 reads y and writes x.
	dstmXYYX := func() sim.Environment {
		return tm.TxnLoop(map[int]tm.Txn{
			1: {Accesses: []tm.Access{{Var: "x"}, {Write: true, Var: "y", Val: 11}}},
			2: {Accesses: []tm.Access{{Var: "y"}, {Write: true, Var: "x", Val: 21}}},
		})
	}
	respondOnce := func(int) sim.Object {
		return &consensus.RespondOnce{Proc: 1, Op: consensus.Propose, Arg: 0, Resp: 0}
	}
	return []pinCase{
		{
			name:     "trivial",
			newObj:   func(int) sim.Object { return consensus.Trivial{} },
			newEnv:   proposeEnv,
			explore:  pinExplore(2, 6, func() sim.Object { return consensus.Trivial{} }, proposeOnce(2)),
			prop:     check.AgreementValidity,
			digest:   0xb666e22e1b823e29,
			prefixes: 5, simSteps: 4, resims: 0, ok: true,
		},
		{
			name:     "respond-once",
			newObj:   respondOnce,
			newEnv:   proposeEnv,
			explore:  pinExplore(2, 6, func() sim.Object { return respondOnce(2) }, proposeOnce(2)),
			prop:     check.AgreementValidity,
			digest:   0xa9806188e1a3cf89,
			prefixes: 5, simSteps: 4, resims: 0, ok: true,
		},
		{
			name:     "decide-own",
			newObj:   func(n int) sim.Object { return consensus.NewDecideOwn(n) },
			newEnv:   proposeEnv,
			explore:  pinExplore(3, 8, func() sim.Object { return consensus.NewDecideOwn(3) }, proposeOnce(3)),
			replay:   true,
			prop:     func() slx.Property { return check.KSetAgreement(3) },
			digest:   0x92a7517e543ca287,
			prefixes: 271, simSteps: 540, resims: 270, ok: true,
		},
		{
			name:     "first-announced",
			newObj:   func(n int) sim.Object { return consensus.NewFirstAnnounced(n) },
			newEnv:   proposeEnv,
			explore:  pinExplore(3, 9, func() sim.Object { return consensus.NewFirstAnnounced(3) }, proposeOnce(3)),
			replay:   true,
			prop:     func() slx.Property { return check.KSetAgreement(2) },
			digest:   0xec4715e5742f0978,
			prefixes: 1100, simSteps: 3150, resims: 2051, ok: false,
		},
		{
			name:   "bakery",
			newObj: func(n int) sim.Object { return mutex.NewBakery(n) },
			newEnv: lockEnv,
			explore: pinExplore(2, 10, func() sim.Object { return mutex.NewBakery(2) },
				func() sim.Environment { return mutex.AcquireReleaseLoop(2) }),
			replay:   true,
			prop:     check.MutualExclusion,
			digest:   0x753477bf032d1a2,
			prefixes: 2047, simSteps: 10240, resims: 8194, ok: true,
		},
		{
			name:   "tournament",
			newObj: func(n int) sim.Object { return mutex.NewTournament(n) },
			newEnv: lockEnv,
			explore: pinExplore(3, 8, func() sim.Object { return mutex.NewTournament(3) },
				func() sim.Environment { return mutex.AcquireReleaseLoop(3) }),
			replay:   true,
			prop:     check.MutualExclusion,
			digest:   0xf49b34d53ae82c12,
			prefixes: 9841, simSteps: 52488, resims: 42648, ok: true,
		},
		{
			name:     "dstm",
			newObj:   func(n int) sim.Object { return tm.NewDSTM(n) },
			newEnv:   txnEnv,
			explore:  pinExplore(2, 6, func() sim.Object { return tm.NewDSTM(2) }, dstmXYYX),
			replay:   true,
			prop:     check.Opacity,
			digest:   0x2ccc4288d832c7a8,
			prefixes: 127, simSteps: 384, resims: 258, ok: true,
		},
		{
			name:     "aborter",
			newObj:   func(int) sim.Object { return tm.Aborter{} },
			newEnv:   txnEnv,
			explore:  pinExplore(2, 6, func() sim.Object { return tm.Aborter{} }, txnPair),
			prop:     check.Opacity,
			digest:   0x856bc4daeff54aae,
			prefixes: 127, simSteps: 384, resims: 258, ok: true,
		},
		{
			name:     "i12",
			newObj:   func(n int) sim.Object { return tm.NewI12(n) },
			newEnv:   txnEnv,
			explore:  pinExplore(2, 8, func() sim.Object { return tm.NewI12(2) }, txnPair),
			prop:     check.PropertyS,
			digest:   0x997efad5b97d6707,
			prefixes: 511, simSteps: 510, resims: 0, ok: true,
		},
		{
			name:     "i12-sw",
			newObj:   newI12SW,
			newEnv:   txnEnv,
			explore:  pinExplore(2, 10, func() sim.Object { return newI12SW(2) }, txnPair),
			replay:   true,
			prop:     check.PropertyS,
			digest:   0xdf5df3b3a1cbab8d,
			prefixes: 2047, simSteps: 10240, resims: 8194, ok: true,
		},
	}
}

// pinDigest folds 50 seeded runs of c into one FNV-1a digest: every
// event (values included), the schedule, the per-process step counts
// and the stop reason. Runs alternate 2 and 3 processes; every third
// seed crashes up to two processes.
func pinDigest(c pinCase) uint64 {
	h := fnv.New64a()
	for seed := int64(0); seed < 50; seed++ {
		n := 2 + int(seed%2)
		sched := sim.Random(seed)
		if seed%3 == 0 {
			sched = sim.RandomCrashy(seed, 0.05, 2)
		}
		res := sim.Run(sim.Config{
			Procs:     n,
			Object:    c.newObj(n),
			Env:       c.newEnv(seed, n),
			Scheduler: sched,
			MaxSteps:  300,
		})
		fmt.Fprintf(h, "run %d:", seed)
		for _, e := range res.H {
			fmt.Fprintf(h, "%d|%d|%s|%s|%v|%v;", e.Kind, e.Proc, e.Op, e.Obj, e.Arg, e.Val)
		}
		fmt.Fprintf(h, "sched %v steps %v reason %v\n", res.Schedule, res.StepsBy, res.Reason)
	}
	return h.Sum64()
}

// TestTranslationPin checks every pinned object against the figures its
// blocking form produced.
func TestTranslationPin(t *testing.T) {
	for _, c := range pinCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if got := pinDigest(c); got != c.digest {
				t.Errorf("run digest %#x, pinned %#x", got, c.digest)
			}
			opts := c.explore
			if c.replay {
				opts = append(opts[:len(opts):len(opts)], slx.WithReplayExecution())
			}
			rep, err := slx.New(opts...).Explore(c.prop())
			if err != nil {
				t.Fatal(err)
			}
			if rep.Prefixes != c.prefixes || rep.SimSteps != c.simSteps || rep.Resims != c.resims || rep.OK() != c.ok {
				t.Errorf("explore: prefixes %d, sim steps %d, resims %d, ok %v; pinned %d, %d, %d, %v",
					rep.Prefixes, rep.SimSteps, rep.Resims, rep.OK(), c.prefixes, c.simSteps, c.resims, c.ok)
			}
			if !c.replay {
				return
			}
			def, err := slx.New(c.explore...).Explore(c.prop())
			if err != nil {
				t.Fatal(err)
			}
			if def.Prefixes != c.prefixes || def.Resims != 0 || def.OK() != c.ok {
				t.Errorf("default explore: prefixes %d, resims %d, ok %v; want %d, 0, %v",
					def.Prefixes, def.Resims, def.OK(), c.prefixes, c.ok)
			}
		})
	}
}

// objectCase is one in-tree object with an environment to run it in.
type objectCase struct {
	procs  int
	newObj func() sim.Object
	newEnv func() sim.Environment
}

// options configures a Checker over the case.
func (c objectCase) options() []slx.Option {
	return []slx.Option{
		slx.WithProcs(c.procs),
		slx.WithObject(c.newObj),
		slx.WithEnv(c.newEnv),
	}
}

// everyObject lists every in-tree object with an environment to run it
// in: the constructors of internal/{consensus,mutex,queue,tm} and I12
// over the software snapshot.
func everyObject() map[string]objectCase {
	with := func(n int, obj func() sim.Object, env func(seed int64, n int) sim.Environment) objectCase {
		return objectCase{procs: n, newObj: obj, newEnv: func() sim.Environment { return env(1, n) }}
	}
	queueEnv := func(int64, int) sim.Environment {
		return sim.Script(map[int][]sim.Invocation{
			1: {{Op: "enq", Arg: 1}, {Op: "deq"}},
			2: {{Op: "enq", Arg: 2}, {Op: "deq"}},
		})
	}
	return map[string]objectCase{
		"CommitAdoptOF":  with(2, func() sim.Object { return consensus.NewCommitAdoptOF(2) }, proposeEnv),
		"CASBased":       with(2, func() sim.Object { return consensus.NewCASBased() }, proposeEnv),
		"Trivial":        with(2, func() sim.Object { return consensus.Trivial{} }, proposeEnv),
		"RespondOnce":    with(2, func() sim.Object { return &consensus.RespondOnce{Proc: 1, Op: consensus.Propose, Arg: 0, Resp: 0} }, proposeEnv),
		"DecideOwn":      with(2, func() sim.Object { return consensus.NewDecideOwn(2) }, proposeEnv),
		"FirstAnnounced": with(2, func() sim.Object { return consensus.NewFirstAnnounced(2) }, proposeEnv),
		"Peterson":       with(2, func() sim.Object { return mutex.NewPeterson() }, lockEnv),
		"TASLock":        with(2, func() sim.Object { return mutex.NewTASLock() }, lockEnv),
		"Tournament":     with(3, func() sim.Object { return mutex.NewTournament(3) }, lockEnv),
		"Bakery":         with(3, func() sim.Object { return mutex.NewBakery(3) }, lockEnv),
		"Locked":         with(2, func() sim.Object { return queue.NewLocked() }, queueEnv),
		"CASQueue":       with(2, func() sim.Object { return queue.NewCASQueue() }, queueEnv),
		"Persistent":     with(2, func() sim.Object { return queue.NewPersistent(2) }, queueEnv),
		"I12":            with(2, func() sim.Object { return tm.NewI12(2) }, txnEnv),
		"I12/SW":         with(2, func() sim.Object { return newI12SW(2) }, txnEnv),
		"GlobalCAS":      with(2, func() sim.Object { return tm.NewGlobalCAS(2) }, txnEnv),
		"DSTM":           with(2, func() sim.Object { return tm.NewDSTM(2) }, txnEnv),
		"DurableTM":      with(2, func() sim.Object { return tm.NewDurableTM(2) }, txnEnv),
		"Aborter":        with(2, func() sim.Object { return tm.Aborter{} }, txnEnv),
	}
}

// TestEveryObjectRunsWithoutGoroutines probes the goroutine count at
// every scheduler call of a 200-step run of each in-tree object and
// registered service target: the dispatch loop steps their frames
// directly, so none may start one.
func TestEveryObjectRunsWithoutGoroutines(t *testing.T) {
	objs := map[string][]slx.Option{}
	for name, c := range everyObject() {
		objs[name] = c.options()
	}
	for _, name := range service.TargetNames() {
		tgt, _ := service.LookupTarget(name)
		objs["target:"+name] = tgt.Options()
	}
	for name, opts := range objs {
		base := runtime.NumGoroutine()
		peak := base
		probe := func() sim.Scheduler {
			rnd := sim.Random(1)
			return sim.SchedulerFunc(func(v *sim.View) (sim.Decision, bool) {
				peak = max(peak, runtime.NumGoroutine())
				return rnd.Next(v)
			})
		}
		opts = append(opts[:len(opts):len(opts)], slx.WithScheduler(probe), slx.WithMaxSteps(200))
		if _, err := slx.New(opts...).Check(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if peak > base {
			t.Errorf("%s: run peaked at %d goroutines, baseline %d", name, peak, base)
		}
	}
}

// auditNode is what TestRestoreAudit compares at one node.
type auditNode struct {
	h              string
	steps          int
	ready, crashed []int
	fp             uint64
	fpOK           bool
}

// auditState reads s's configuration.
func auditState(s *sim.Session) auditNode {
	fp, ok := s.Fingerprint()
	return auditNode{
		h:       fmt.Sprint(s.History()),
		steps:   s.Steps(),
		ready:   s.ReadyAppend(nil),
		crashed: s.CrashedAppend(nil),
		fp:      fp,
		fpOK:    ok,
	}
}

// TestRestoreAudit checks every in-tree object's derived
// Snapshot/Restore node by node (the three without a memory excepted): a depth-6 DFS on a snapshot-strategy
// session (crash and recovery budgets of 1 for Recoverable objects)
// compares, at every node, the history, step count, ready and crashed
// sets and — for fingerprintable objects — the fingerprint against a
// fresh session over the object's Apply alone extended by the same
// decisions. Every mark is restored twice around each child's step, and
// the step must reach the same configuration both times, so a Restore
// that adopted its snapshot, or a step that advanced a frame the mark
// shares, would corrupt the second visit.
func TestRestoreAudit(t *testing.T) {
	const depth = 6
	noMemory := map[string]bool{"Trivial": true, "RespondOnce": true, "Aborter": true}
	for name, c := range everyObject() {
		if !run.CanSnapshot(c.newObj()) {
			if !noMemory[name] {
				t.Errorf("%s keeps its state in a memory but cannot snapshot", name)
			}
			continue
		}
		c := c
		t.Run(name, func(t *testing.T) {
			_, fingerprinted := c.newObj().(sim.Fingerprintable)
			budget := 0
			if _, ok := c.newObj().(sim.Recoverable); ok {
				budget = 1
			}
			sess, err := sim.NewSession(sim.SessionConfig{Procs: c.procs, Object: c.newObj(), NewEnv: c.newEnv, Fingerprint: fingerprinted})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			reference := func(path []sim.Decision) auditNode {
				ref, err := sim.NewSession(sim.SessionConfig{
					Procs:       c.procs,
					Object:      sim.ApplyOnly(c.newObj()),
					NewObject:   func() sim.Object { return sim.ApplyOnly(c.newObj()) },
					NewEnv:      c.newEnv,
					Fingerprint: fingerprinted,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer ref.Close()
				for _, d := range path {
					if _, err := ref.Extend(d); err != nil {
						t.Fatalf("reference at %v: %v", path, err)
					}
				}
				return auditState(ref)
			}
			nodes := 0
			var visit func(path []sim.Decision, crashes, recoveries int)
			visit = func(path []sim.Decision, crashes, recoveries int) {
				nodes++
				here := auditState(sess)
				if want := reference(path); !reflect.DeepEqual(here, want) {
					t.Fatalf("at %v:\n session   %+v\n reference %+v", path, here, want)
				}
				if len(path) == depth {
					return
				}
				var kids []sim.Decision
				for _, p := range here.ready {
					kids = append(kids, sim.Decision{Proc: p})
				}
				if crashes < budget {
					for _, p := range here.ready {
						kids = append(kids, sim.Decision{Proc: p, Crash: true})
					}
				}
				if recoveries < budget {
					for _, p := range here.crashed {
						kids = append(kids, sim.Decision{Proc: p, Recover: true})
					}
				}
				mark := sess.Mark()
				for _, d := range kids {
					var child auditNode
					for visitTwice := 0; visitTwice < 2; visitTwice++ {
						if _, err := sess.Extend(d); err != nil {
							t.Fatalf("extend %v at %v: %v", d, path, err)
						}
						if got := auditState(sess); visitTwice == 0 {
							child = got
						} else if !reflect.DeepEqual(got, child) {
							t.Fatalf("%v after restoring to %v again:\n got  %+v\n want %+v", d, path, got, child)
						}
						nc, nr := crashes, recoveries
						if d.Crash {
							nc++
						}
						if d.Recover {
							nr++
						}
						if visitTwice == 0 {
							visit(append(path[:len(path):len(path)], d), nc, nr)
						}
						if n, err := sess.Restore(mark); err != nil || n != 0 {
							t.Fatalf("restore at %v re-executed %d steps (%v): not the snapshot strategy", path, n, err)
						}
						if got := auditState(sess); !reflect.DeepEqual(got, here) {
							t.Fatalf("restore to %v:\n got  %+v\n want %+v", path, got, here)
						}
					}
				}
			}
			visit(nil, 0, 0)
			t.Logf("%d nodes", nodes)
		})
	}
}
