package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/queue"
	"repro/internal/service"
	"repro/slx"
	"repro/slx/check"
	"repro/slx/run"
	"repro/slx/tm"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlDFSPlain   = "dfs-plain"
	wlDFSReduced = "dfs-reduced"
	wlSamplePCT  = "sample-pct"
	wlSlxdOpen   = "slxd-open"
)

var workloads = []string{wlDFSPlain, wlDFSReduced, wlSamplePCT, wlSlxdOpen}

// Benchmark-owned target families. A family target name carries its
// seeded parameters after the colon, so a job stays a plain
// service.JobSpec: target name plus slx.Spec.
const (
	famReg3   = "reg3"   // reg3:<p1 ops>/<p2 ops>/<p3 ops>, ops "w<v>" or "r" joined by "."
	famQueue3 = "queue3" // queue3:<p1 ops>/<p2 ops>/<p3 ops>, ops "e<v>" or "d" joined by "."
	famDSTM   = "dstm"   // dstm:<p1 txn>/<p2 txn>, a txn "<read var><write var>" over x and y
)

// generate draws a workload's job list from its seed. The list is the
// only input the program under test sees; each run makes whole passes
// over it.
func generate(workload string, seed int64) ([]service.JobSpec, error) {
	rng := rand.New(rand.NewSource(seed))
	g := gen{rng: rng}
	switch workload {
	case wlDFSPlain:
		g.scale = 8
		g.dfsPlain()
	case wlDFSReduced:
		g.scale = 4
		g.dfsReduced()
	case wlSamplePCT:
		g.scale = 2
		g.samplePCT()
	case wlSlxdOpen:
		g.scale = 1
		g.slxdOpen()
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloads, ", "))
	}
	// Interleave the families so a run never sees one family in a block.
	// The first job of each family stays in front, in family order, so
	// every seed warms up (warmUpJobs) on jobs of the same shapes.
	var front, rest []service.JobSpec
	seen := map[string]bool{}
	for _, s := range g.jobs {
		if fam := family(s); !seen[fam] {
			seen[fam] = true
			front = append(front, s)
		} else {
			rest = append(rest, s)
		}
	}
	rng.Shuffle(len(rest), func(i, k int) { rest[i], rest[k] = rest[k], rest[i] })
	return append(front, rest...), nil
}

// family is a job's target family: a registered target, or a
// benchmark-owned family without its parameters.
func family(s service.JobSpec) string {
	fam, _, _ := strings.Cut(s.Target, ":")
	return fam
}

// gen accumulates one workload's job list. Every family has a fixed
// quota per list; the seed only draws parameters within a family (scripts,
// written values, depths from a fixed multiset, sampling seeds), so each
// seed measures the same mix.
type gen struct {
	rng *rand.Rand
	// scale multiplies every quota: longer lists average the seed's draws
	// over more jobs, so runs with different seeds agree more closely.
	scale int
	jobs  []service.JobSpec
}

// add appends n·g.scale jobs of one family; f draws job i.
func (g *gen) add(n int, f func(i int) service.JobSpec) {
	for i := 0; i < n*g.scale; i++ {
		g.jobs = append(g.jobs, f(i))
	}
}

// seed draws a nonzero sampling seed.
func (g *gen) seed() int64 { return g.rng.Int63n(1<<40) + 1 }

// values draws the written values of 3-process script i. regScript and
// queueScript give job i the operation orders of the bits of i%8 (one
// bit per process) and distinct values (divergent states) for even i/8,
// one shared value (convergent states) for odd i/8, so every list holds
// the same script shapes; the seed draws which process gets which value.
func (g *gen) values(i int) []int {
	v := []int{1, 2, 3}
	if i/8%2 == 1 {
		v = []int{1, 1, 1}
	}
	g.rng.Shuffle(3, func(a, b int) { v[a], v[b] = v[b], v[a] })
	return v
}

// regScript draws a 3-process register script: each process writes its
// value and reads once.
func (g *gen) regScript(i int) string {
	v := g.values(i)
	procs := make([]string, 3)
	for p := range procs {
		ops := []string{"w" + strconv.Itoa(v[p]), "r"}
		if i>>p&1 == 1 {
			ops[0], ops[1] = ops[1], ops[0]
		}
		procs[p] = strings.Join(ops, ".")
	}
	return famReg3 + ":" + strings.Join(procs, "/")
}

// queueScript draws a 3-process queue script: each process enqueues its
// value and dequeues once.
func (g *gen) queueScript(i int) string {
	v := g.values(i)
	procs := make([]string, 3)
	for p := range procs {
		ops := []string{"e" + string(rune('a'+v[p]-1)), "d"}
		if i>>p&1 == 1 {
			ops[0], ops[1] = ops[1], ops[0]
		}
		procs[p] = strings.Join(ops, ".")
	}
	return famQueue3 + ":" + strings.Join(procs, "/")
}

// dstmScript draws a 2-process DSTM workload: each process loops a
// transaction that reads one variable and writes one. Job i takes the
// i%16-th choice of the four variables; the seed draws their names.
func (g *gen) dstmScript(i int) string {
	vars := "xy"
	if g.rng.Intn(2) == 0 {
		vars = "yx"
	}
	procs := make([]string, 2)
	for p := range procs {
		c := i >> (2 * p)
		procs[p] = string(vars[c&1]) + string(vars[c>>1&1])
	}
	return famDSTM + ":" + strings.Join(procs, "/")
}

func exhaustive(target string, s slx.Spec) service.JobSpec {
	return service.JobSpec{Target: target, Spec: s}
}

// dfsPlain: exhaustive Explore with default options (monitors, no POR, no
// cache, one worker). Clean registered targets at the EXPERIMENTS.md
// configurations, the seeded-bug targets, the 3-process register/queue
// family and a DSTM/opacity share on the replay executor.
func (g *gen) dfsPlain() {
	// EXPERIMENTS.md configurations.
	g.add(4, func(int) service.JobSpec { return exhaustive("consensus", slx.Spec{Depth: 8}) })
	g.add(2, func(int) service.JobSpec { return exhaustive("i12", slx.Spec{Depth: 10}) })
	g.add(4, func(int) service.JobSpec { return exhaustive("durablequeue", slx.Spec{Depth: 14}) })
	g.add(2, func(int) service.JobSpec { return exhaustive("durablequeue", slx.Spec{Depth: 12, Crashes: 1}) })
	g.add(4, func(i int) service.JobSpec { return exhaustive("globalcas", slx.Spec{Depth: 7 + i%2}) })
	g.add(4, func(i int) service.JobSpec { return exhaustive("i12", slx.Spec{Depth: 7 + i%2}) })
	// Seeded bugs. Unequal quotas keep every median inside one family.
	g.add(4, func(int) service.JobSpec { return exhaustive("lossyreg", slx.Spec{Depth: 8}) })
	g.add(12, func(int) service.JobSpec {
		return exhaustive("durablequeue", slx.Spec{Depth: 14, Crashes: 1, Recoveries: 1})
	})
	// 3-process register/queue family with seeded scripts.
	g.add(24, func(i int) service.JobSpec { return exhaustive(g.regScript(i), slx.Spec{Depth: 7}) })
	g.add(12, func(i int) service.JobSpec { return exhaustive(g.queueScript(i), slx.Spec{Depth: 7}) })
	// DSTM has only Apply: these run on the from-root replay executor.
	g.add(8, func(i int) service.JobSpec { return exhaustive(g.dstmScript(i), slx.Spec{Depth: 6}) })
}

// dfsReduced: the same families, deeper, with POR and the state cache.
// Half of the register/queue jobs write one shared value (convergent: the
// cache hits) and half write distinct values. The clean registered-target
// jobs, about a twelfth of the time, run at two workers so the
// work-stealing path is exercised; the rest run at one. With both CPUs of
// a shared 2-CPU host busy, any other load lands on a job's critical
// path: at two workers throughout, the workload's figures spread by 0.2
// across runs of the same code, and the second worker bought no
// throughput.
func (g *gen) dfsReduced() {
	red := func(s slx.Spec) slx.Spec { s.POR, s.Cache = true, true; return s }
	par := func(s slx.Spec) slx.Spec { s = red(s); s.Workers = 2; return s }
	g.add(4, func(i int) service.JobSpec { return exhaustive("consensus", par(slx.Spec{Depth: 10 + 2*(i%2)})) })
	g.add(4, func(i int) service.JobSpec { return exhaustive("i12", par(slx.Spec{Depth: 10 + i%2})) })
	g.add(4, func(i int) service.JobSpec { return exhaustive("globalcas", par(slx.Spec{Depth: 9 + i%2})) })
	g.add(4, func(i int) service.JobSpec { return exhaustive("durablequeue", par(slx.Spec{Depth: 14, Crashes: 1})) })
	g.add(4, func(int) service.JobSpec { return exhaustive("lossyreg", red(slx.Spec{Depth: 8})) })
	g.add(12, func(int) service.JobSpec {
		return exhaustive("durablequeue", red(slx.Spec{Depth: 14, Crashes: 1, Recoveries: 1}))
	})
	g.add(24, func(i int) service.JobSpec { return exhaustive(g.regScript(i), red(slx.Spec{Depth: 8 + i/16%2})) })
	g.add(12, func(i int) service.JobSpec { return exhaustive(g.queueScript(i), red(slx.Spec{Depth: 8})) })
	g.add(4, func(i int) service.JobSpec { return exhaustive(g.dstmScript(i), red(slx.Spec{Depth: 7})) })
}

func sampled(target string, s slx.Spec) service.JobSpec {
	s.Sample = true
	return service.JobSpec{Target: target, Spec: s}
}

// samplePCT: PCT sampling at one worker. Clean jobs spend a fixed
// schedule budget; hunt jobs stop at the known bug, each with its own
// seed drawn from the workload seed.
func (g *gen) samplePCT() {
	clean := func(target string, schedules, depth int) func(int) service.JobSpec {
		return func(i int) service.JobSpec {
			return sampled(target, slx.Spec{Schedules: schedules, D: 1 + i%3, Depth: depth, Seed: g.seed()})
		}
	}
	g.add(12, clean("consensus", 60, 20))
	// The TM jobs are the long clean jobs: a tenth of the work at 2% of
	// the jobs, so the slowest percent of verdicts is theirs.
	g.add(12, clean("i12", 240, 16))
	g.add(12, clean("globalcas", 240, 16))
	g.add(12, func(i int) service.JobSpec {
		return sampled("durablequeue", slx.Spec{Schedules: 60, D: 1 + i%3, Depth: 14, Crashes: 1, Seed: g.seed()})
	})
	g.add(24, func(i int) service.JobSpec {
		return sampled(g.regScript(i), slx.Spec{Schedules: 60, D: 1 + i%3, Depth: 12, Seed: g.seed()})
	})
	// Hunt jobs: the budgets are far above the schedules any seed needs.
	g.add(240, func(i int) service.JobSpec {
		return sampled("queueblast", slx.Spec{Schedules: 5000, D: 1 + i%2, Depth: 24, Seed: g.seed()})
	})
	g.add(240, func(i int) service.JobSpec {
		return sampled("durablequeue", slx.Spec{Schedules: 5000, D: 1 + i%2, Depth: 14, Crashes: 1, Recoveries: 1, Seed: g.seed()})
	})
	g.add(120, func(i int) service.JobSpec {
		return sampled("lossyreg", slx.Spec{Schedules: 5000, D: 1 + i%2, Depth: 8, Seed: g.seed()})
	})
}

// slxdOpen: small exhaustive and sampling jobs on the registered targets
// (the daemon resolves only those), some violating.
func (g *gen) slxdOpen() {
	g.add(40, func(i int) service.JobSpec { return exhaustive("consensus", slx.Spec{Depth: 6 + i%3}) })
	g.add(30, func(i int) service.JobSpec { return exhaustive("i12", slx.Spec{Depth: 5 + i%2}) })
	g.add(30, func(i int) service.JobSpec { return exhaustive("globalcas", slx.Spec{Depth: 5 + i%2}) })
	g.add(30, func(i int) service.JobSpec { return exhaustive("durablequeue", slx.Spec{Depth: 10}) })
	// Violating jobs; the quotas keep the median violation inside one family.
	g.add(30, func(int) service.JobSpec { return exhaustive("lossyreg", slx.Spec{Depth: 8}) })
	g.add(40, func(int) service.JobSpec {
		return exhaustive("durablequeue", slx.Spec{Depth: 12, Crashes: 1, Recoveries: 1})
	})
	g.add(60, func(i int) service.JobSpec {
		return sampled("consensus", slx.Spec{Schedules: 20, D: 1 + i%3, Depth: 16, Seed: g.seed()})
	})
}

// expectOK is the verdict a job must reach: clean targets pass, seeded
// bugs fail. The rules hold for every configuration generate draws.
func expectOK(s service.JobSpec) bool {
	switch s.Target {
	case "lossyreg":
		return false
	case "queueblast":
		return !s.Sample // exhaustive depths below 9 are provably clean
	case "durablequeue":
		// The duplicate needs a crash, a recovery and 12 steps.
		return s.Crashes < 1 || s.Recoveries < 1 || s.Depth < 12
	}
	return true
}

// target resolves a job's target name: a registered slxd target or a
// benchmark-owned family.
func target(name string) (service.Target, error) {
	if t, ok := service.LookupTarget(name); ok {
		return t, nil
	}
	fam, arg, _ := strings.Cut(name, ":")
	switch fam {
	case famReg3:
		script, err := parseScript(arg, func(op string) (run.Invocation, error) {
			if op == "r" {
				return run.Invocation{Op: "read"}, nil
			}
			if v, ok := strings.CutPrefix(op, "w"); ok {
				n, err := strconv.Atoi(v)
				return run.Invocation{Op: "write", Arg: n}, err
			}
			return run.Invocation{}, fmt.Errorf("bad register op %q", op)
		})
		if err != nil {
			return service.Target{}, err
		}
		return service.Target{
			Name: name,
			Options: func() []slx.Option {
				return []slx.Option{
					slx.WithProcs(3),
					slx.WithObject(func() run.Object { return &register{v: 0} }),
					slx.WithEnv(func() run.Environment { return run.Script(script) }),
				}
			},
			Property: func() slx.Property { return check.Linearizability(check.RegisterSpec{Initial: 0}) },
		}, nil
	case famQueue3:
		script, err := parseScript(arg, func(op string) (run.Invocation, error) {
			if op == "d" {
				return run.Invocation{Op: "deq"}, nil
			}
			if v, ok := strings.CutPrefix(op, "e"); ok {
				return run.Invocation{Op: "enq", Arg: v}, nil
			}
			return run.Invocation{}, fmt.Errorf("bad queue op %q", op)
		})
		if err != nil {
			return service.Target{}, err
		}
		return service.Target{
			Name: name,
			Options: func() []slx.Option {
				return []slx.Option{
					slx.WithProcs(3),
					slx.WithObject(func() run.Object { return queue.NewCASQueue() }),
					slx.WithEnv(func() run.Environment { return run.Script(script) }),
				}
			},
			Property: func() slx.Property { return check.Linearizability(check.QueueSpec{}) },
		}, nil
	case famDSTM:
		tpl := map[int]tm.Txn{}
		for p, txn := range strings.Split(arg, "/") {
			if len(txn) != 2 {
				return service.Target{}, fmt.Errorf("bad dstm transaction %q", txn)
			}
			tpl[p+1] = tm.Txn{Accesses: []tm.Access{
				{Var: txn[:1]},
				{Write: true, Var: txn[1:], Val: 10*(p+1) + 1},
			}}
		}
		return service.Target{
			Name: name,
			Options: func() []slx.Option {
				return []slx.Option{
					slx.WithProcs(2),
					slx.WithObject(func() run.Object { return tm.NewDSTM(2) }),
					slx.WithEnv(func() run.Environment { return tm.TxnLoop(tpl) }),
				}
			},
			Property: func() slx.Property { return check.Opacity() },
		}, nil
	}
	return service.Target{}, fmt.Errorf("unknown target %q", name)
}

// parseScript parses "<p1 ops>/<p2 ops>/..." into a per-process script.
func parseScript(s string, op func(string) (run.Invocation, error)) (map[int][]run.Invocation, error) {
	if s == "" {
		return nil, errors.New("empty script")
	}
	script := map[int][]run.Invocation{}
	for p, ops := range strings.Split(s, "/") {
		for _, o := range strings.Split(ops, ".") {
			inv, err := op(o)
			if err != nil {
				return nil, err
			}
			script[p+1] = append(script[p+1], inv)
		}
	}
	return script, nil
}

// checkerFor builds the checker of a job exactly as slxd does: target
// options first, then the spec's, then any extra options.
func checkerFor(s service.JobSpec, extra ...slx.Option) (*slx.Checker, slx.Property, error) {
	t, err := target(s.Target)
	if err != nil {
		return nil, nil, err
	}
	opts := append(t.Options(), s.Spec.Options()...)
	return slx.New(append(opts, extra...)...), t.Property(), nil
}
