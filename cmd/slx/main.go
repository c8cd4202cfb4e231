// Command slx (Safety-Liveness eXclusion) runs the individual experiments
// of the reproduction through the public slx API.
//
// Usage:
//
//	slx bivalence [-steps 140]           FLP/CIL adversary vs register consensus
//	slx tmstarve  [-impl i12] [-steps 600]  Section 4.1 TM adversary
//	slx s3        [-steps 900]           Section 5.3 three-process adversary
//	slx gmax                             Corollaries 4.5 / 4.6 (G_max = ∅)
//	slx theorem44                        Theorem 4.4 on finite models
//	slx theorem49                        Theorem 4.9 over I_t / I_b automata
//	slx explore   [-target consensus] [-depth 12]  exhaustive safety check (incremental monitors)
//	slx explore   -sample [-schedules N] [-d K] [-seed S]  probabilistic (PCT) check
//	slx submit    [-addr URL] [-wait] <explore flags>  submit the same check to an slxd daemon
//	slx status    [-addr URL] [job-id]           show one slxd job, or list all
//	slx report                           full paper-versus-measured summary
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/service"
	"repro/slx"
	"repro/slx/adversary"
	"repro/slx/check"
	"repro/slx/consensus"
	"repro/slx/hist"
	"repro/slx/plane"
	"repro/slx/run"
	"repro/slx/tm"
)

// command is one slx subcommand. The usage message is generated from
// this table, so dispatch and documentation cannot drift apart.
type command struct {
	name     string
	synopsis string // flags summary, empty when the command takes none
	about    string
	run      func(args []string) error
}

// commands is the subcommand table; dispatch and usage both read it.
var commands = []command{
	{"bivalence", "[-steps 140]", "FLP/CIL adversary vs register consensus", cmdBivalence},
	{"tmstarve", "[-impl i12] [-steps 600]", "Section 4.1 TM adversary", cmdTMStarve},
	{"s3", "[-steps 900]", "Section 5.3 three-process adversary", cmdS3},
	{"gmax", "", "Corollaries 4.5 / 4.6 (G_max = ∅)", func([]string) error { return cmdGmax() }},
	{"theorem44", "", "Theorem 4.4 on finite models", func([]string) error { return cmdTheorem44() }},
	{"theorem49", "", "Theorem 4.9 over I_t / I_b automata", func([]string) error { return cmdTheorem49() }},
	{"explore", "[-target consensus] [-procs n] [-depth 12] [-crashes n] [-recoveries n] [-por] [-cache] [-workers n] [-replay] [-timeout d] [-sample] [-schedules n] [-d k] [-seed s] [-walk]", "exhaustive or sampled (PCT) safety check", cmdExplore},
	{"submit", "[-addr url] [-wait] <explore flags>", "submit a check job to an slxd daemon", cmdSubmit},
	{"status", "[-addr url] [job-id]", "show one slxd job, or list all", cmdStatus},
	{"report", "", "full paper-versus-measured summary", func([]string) error { return cmdReport() }},
}

// baseContext parents explore's signal context; tests swap it to drive
// the interrupt path without delivering a real SIGINT to the process.
var baseContext = context.Background()

// newFlagSet creates the flag sets of explore and submit; tests swap it
// to inspect the flags each command registers.
var newFlagSet = func(name string) *flag.FlagSet { return flag.NewFlagSet(name, flag.ContinueOnError) }

// exitCodeError carries a specific process exit code through dispatch:
// interrupted explorations exit 130 (the shell's SIGINT convention) and
// timed-out ones 124 (the timeout(1) convention), distinct from the
// generic 1 of a found violation.
type exitCodeError struct {
	code int
	err  error
}

func (e *exitCodeError) Error() string { return e.err.Error() }
func (e *exitCodeError) Unwrap() error { return e.err }

// exitCode maps a dispatch error to the process exit code.
func exitCode(err error) int {
	var ec *exitCodeError
	if errors.As(err, &ec) {
		return ec.code
	}
	return 1
}

// usage renders the one-line and per-command usage from the table.
func usage() string {
	names := make([]string, len(commands))
	var b strings.Builder
	for i, c := range commands {
		names[i] = c.name
		fmt.Fprintf(&b, "\n  slx %-10s %-28s %s", c.name, c.synopsis, c.about)
	}
	return fmt.Sprintf("usage: slx <%s> [flags]%s", strings.Join(names, "|"), b.String())
}

func main() {
	if err := dispatch(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "slx:", err)
		os.Exit(exitCode(err))
	}
}

func dispatch(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("%s", usage())
	}
	for _, c := range commands {
		if c.name == args[0] {
			return c.run(args[1:])
		}
	}
	return fmt.Errorf("unknown subcommand %q\n%s", args[0], usage())
}

func cmdBivalence(args []string) error {
	fs := flag.NewFlagSet("bivalence", flag.ContinueOnError)
	steps := fs.Int("steps", 140, "length of the fair non-deciding schedule")
	if err := fs.Parse(args); err != nil {
		return err
	}
	strat := adversary.NewBivalenceStrategy(0, 1)
	c := slx.New(
		slx.WithObject(func() run.Object { return consensus.NewCommitAdoptOF(2) }),
		slx.WithProcs(2),
		slx.WithMaxSteps(*steps),
	)
	rep, err := c.Adversary(strat,
		check.LK(1, 2, nil),
		check.LK(1, 1, nil),
		check.AgreementValidity(),
	)
	if err != nil {
		return err
	}
	e := rep.Execution
	fmt.Printf("constructed a fair %d-step schedule with %d solo probes\n", len(rep.Schedule), strat.Probes())
	fmt.Printf("steps: p1=%d p2=%d\n", e.StepsBy[1], e.StepsBy[2])
	fmt.Printf("external history: %s\n", e.H)
	lk12, _ := rep.Verdict("(1,2)-freedom")
	lk11, _ := rep.Verdict("(1,1)-freedom")
	av, _ := rep.Verdict("agreement+validity")
	fmt.Printf("(1,2)-freedom holds: %v (expected false)\n", lk12.Holds)
	fmt.Printf("(1,1)-freedom holds: %v (vacuously true)\n", lk11.Holds)
	fmt.Printf("agreement+validity holds: %v\n", av.Holds)
	return nil
}

func cmdTMStarve(args []string) error {
	fs := flag.NewFlagSet("tmstarve", flag.ContinueOnError)
	impl := fs.String("impl", "i12", "TM implementation: i12 or globalcas")
	steps := fs.Int("steps", 600, "step budget")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var newObj func() run.Object
	switch *impl {
	case "i12":
		newObj = func() run.Object { return tm.NewI12(2) }
	case "globalcas":
		newObj = func() run.Object { return tm.NewGlobalCAS(2) }
	default:
		return fmt.Errorf("unknown impl %q", *impl)
	}
	strat := adversary.NewTMStarveStrategy(1, 2)
	c := slx.New(
		slx.WithObject(newObj),
		slx.WithProcs(2),
		slx.WithMaxSteps(*steps),
	)
	rep, err := c.Adversary(strat,
		check.LocalProgress(),
		check.LK(2, 2, check.TMGood()),
		check.Opacity(),
	)
	if err != nil {
		return err
	}
	commits := map[int]int{}
	for _, ev := range rep.Execution.H {
		if ev.Kind == hist.KindResponse && ev.Val == hist.Commit {
			commits[ev.Proc]++
		}
	}
	fmt.Printf("starvation cycles completed: %d\n", strat.Loops())
	fmt.Printf("victim committed: %v; commits per process: p1=%d p2=%d\n",
		strat.VictimCommitted(), commits[1], commits[2])
	lp, _ := rep.Verdict("local-progress")
	lk22, _ := rep.Verdict("(2,2)-freedom")
	op, _ := rep.Verdict("opacity")
	fmt.Printf("local progress holds: %v (expected false)\n", lp.Holds)
	fmt.Printf("(2,2)-freedom holds: %v (expected false)\n", lk22.Holds)
	fmt.Printf("opacity holds: %v (the adversary wins on liveness, not safety)\n", op.Holds)
	return nil
}

func cmdS3(args []string) error {
	fs := flag.NewFlagSet("s3", flag.ContinueOnError)
	steps := fs.Int("steps", 900, "step budget")
	if err := fs.Parse(args); err != nil {
		return err
	}
	strat := adversary.NewS3Strategy()
	c := slx.New(
		slx.WithObject(func() run.Object { return tm.NewI12(3) }),
		slx.WithProcs(3),
		slx.WithMaxSteps(*steps),
	)
	rep, err := c.Adversary(strat,
		check.LK(1, 3, check.TMGood()),
		check.PropertyS(),
	)
	if err != nil {
		return err
	}
	fmt.Printf("all-aborted rounds: %d; anyone committed: %v\n", strat.Rounds(), strat.Committed())
	lk13, _ := rep.Verdict("(1,3)-freedom")
	ps, _ := rep.Verdict("S(opacity+timestamp-abort)")
	fmt.Printf("(1,3)-freedom holds: %v (expected false)\n", lk13.Holds)
	fmt.Printf("property S holds: %v\n", ps.Holds)
	return nil
}

func cmdGmax() error {
	f1 := plane.NewHistorySet("F1", adversary.ConsensusF1(0, 1)...)
	f2 := plane.NewHistorySet("F2", adversary.ConsensusF2(0, 1)...)
	fmt.Printf("consensus: |F1|=%d |F2|=%d |F1∩F2|=%d → G_max empty: %v (Corollary 4.5)\n",
		f1.Len(), f2.Len(), plane.Intersect(f1, f2).Len(), plane.Gmax(f1, f2).Empty())

	a1 := adversary.NewTMStarve(1, 2)
	h1 := a1.Attack(tm.NewI12(2), 2, 200).H
	a2 := adversary.NewTMStarve(2, 1)
	h2 := a2.Attack(tm.NewI12(2), 2, 200).H
	g := plane.Gmax(plane.NewHistorySet("TM-F1", h1), plane.NewHistorySet("TM-F2", h2))
	fmt.Printf("TM: first events %s vs %s → G_max empty: %v (Corollary 4.6)\n",
		h1[0], h2[0], g.Empty())
	return nil
}

func cmdTheorem44() error {
	for _, tc := range []struct {
		name string
		m    *plane.FiniteModel
	}{
		{"model with weakest", plane.ModelWithWeakest()},
		{"model without weakest (corollary shape)", plane.ModelWithoutWeakest()},
	} {
		r, err := tc.m.CheckTheorem44()
		if err != nil {
			return err
		}
		fmt.Printf("%s: weakest exists=%v, Gmax∈F(Lmax)=%v, theorem agrees=%v\n",
			tc.name, r.WeakestExists, r.GmaxIsAdversary, r.Agrees)
	}
	return nil
}

func cmdTheorem49() error {
	r, err := plane.CheckTheorem49(5)
	if err != nil {
		return err
	}
	fmt.Print(r.String())
	fmt.Printf("all proof steps verified: %v\n", r.Holds())
	return nil
}

// exploreFlags registers the flags explore and submit share: the target
// and one flag per slx.Spec field, with one set of defaults. The
// returned function reads the parsed flags back as the job spec, which
// explore maps through Spec.Options exactly as the daemon does.
func exploreFlags(fs *flag.FlagSet) func() service.JobSpec {
	var j service.JobSpec
	fs.StringVar(&j.Target, "target", "consensus", fmt.Sprintf("check target: %s", strings.Join(service.TargetNames(), ", ")))
	fs.IntVar(&j.Procs, "procs", 0, "process count; a target accepts only its own (0: the target's)")
	fs.IntVar(&j.Depth, "depth", 12, "schedule depth")
	fs.IntVar(&j.Crashes, "crashes", 0, "crash budget (branch on crashing ready processes)")
	fs.IntVar(&j.Recoveries, "recoveries", 0, "recovery budget (branch on recovering crashed processes; needs -crashes)")
	fs.IntVar(&j.Workers, "workers", 1, "explore with n work-stealing workers (submit: extra lanes are offered to the daemon's pool)")
	fs.BoolVar(&j.POR, "por", false, "sleep-set partial-order reduction (prune interleavings that only commute independent steps)")
	fs.BoolVar(&j.Cache, "cache", false, "state-fingerprint cache (prune subtrees rooted at already-explored states)")
	fs.BoolVar(&j.Replay, "replay", false, "force from-root execution (sessions rebuild from the root, running the object's Apply, instead of restoring snapshots)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget; an expired exploration reports partial statistics (explore exits 124)")
	fs.BoolVar(&j.Sample, "sample", false, "probabilistic sampling instead of exhaustive enumeration")
	fs.IntVar(&j.Schedules, "schedules", 10000, "sampled schedules (with -sample)")
	fs.IntVar(&j.D, "d", 3, "PCT priority-change points per schedule (with -sample)")
	fs.Int64Var(&j.Seed, "seed", 1, "master seed; schedule i uses seed+i (with -sample)")
	fs.BoolVar(&j.Walk, "walk", false, "uniform random walk instead of PCT (with -sample)")
	return func() service.JobSpec {
		// Whole milliseconds, but a nonzero budget never truncates to
		// "none": its sign must reach validation.
		j.TimeoutMs = timeout.Milliseconds()
		if j.TimeoutMs == 0 && *timeout > 0 {
			j.TimeoutMs = 1
		} else if j.TimeoutMs == 0 && *timeout < 0 {
			j.TimeoutMs = -1
		}
		return j
	}
}

func cmdExplore(args []string) error {
	fs := newFlagSet("explore")
	jobSpec := exploreFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec := jobSpec()
	// Ctrl-C cancels the exploration instead of killing the process:
	// Explore unwinds with a partial, Interrupted report, which is
	// printed before exiting 130. A second SIGINT kills hard (stop()
	// restores default delivery once the context fires).
	ctx, stop := signal.NotifyContext(baseContext, os.Interrupt)
	defer stop()
	c, prop, err := service.JobChecker(spec, slx.WithContext(ctx))
	if err != nil {
		return err
	}
	start := time.Now()
	rep, err := c.Explore(prop)
	elapsed := time.Since(start)
	if err != nil {
		if rep != nil && rep.Interrupted {
			if rep.Sampled {
				printSampleColumns(rep, elapsed)
			} else {
				fmt.Printf("interrupted after %d prefixes (%d simulator steps) in %.1fs: partial exploration, no verdicts\n",
					rep.Prefixes, rep.SimSteps, elapsed.Seconds())
			}
			code := 130
			if errors.Is(err, context.DeadlineExceeded) {
				code = 124
			}
			return &exitCodeError{code: code, err: fmt.Errorf("interrupted: %w", err)}
		}
		return err
	}
	if rep.Sampled {
		printSampleColumns(rep, elapsed)
	}
	if !rep.OK() {
		return fmt.Errorf("violation found: %s (witness %v)", rep.Failures()[0], rep.Witness())
	}
	if rep.Sampled {
		return nil
	}
	mode := "incremental monitors"
	if spec.Replay {
		mode += ", replay execution"
	} else {
		mode += ", incremental execution"
	}
	if spec.POR {
		mode += ", POR"
	}
	if spec.Cache {
		mode += ", state cache"
	}
	if rep.Workers > 1 {
		mode += fmt.Sprintf(", %d workers", rep.Workers)
	}
	fmt.Printf("explored %d schedule prefixes (%d simulator steps + %d resim steps, %d property-event scans via %s): no violation up to depth %d\n",
		rep.Prefixes, rep.SimSteps, rep.Resims, rep.EventScans, mode, rep.Depth)
	if spec.POR {
		fmt.Printf("partial-order reduction pruned %d subtrees\n", rep.Pruned)
	}
	if spec.Cache {
		fmt.Printf("state cache pruned %d subtrees rooted at already-explored states\n", rep.CacheHits)
	}
	return nil
}

// printSampleColumns renders the sampling statistics. It runs before the
// violation error is returned, so the columns survive a non-zero exit.
func printSampleColumns(rep *slx.Report, elapsed time.Duration) {
	rate := 0.0
	if s := elapsed.Seconds(); s > 0 {
		rate = float64(rep.Schedules) / s
	}
	fmt.Printf("  %-18s %d\n", "schedules run", rep.Schedules)
	fmt.Printf("  %-18s %d\n", "distinct states", rep.DistinctStates)
	fmt.Printf("  %-18s %.0f\n", "schedules/sec", rate)
	if rep.FailingSeed != 0 {
		fmt.Printf("  %-18s %d  (replay with -sample -schedules 1 -seed %d)\n",
			"first failing seed", rep.FailingSeed, rep.FailingSeed)
	}
	if rep.Interrupted {
		fmt.Printf("  %-18s %s\n", "interrupted", "context cancelled before the schedule budget")
	}
	if rep.OK() && !rep.Interrupted {
		fmt.Printf("no violation on %d sampled schedules — probabilistic evidence, not exhaustive proof\n", rep.Schedules)
	}
}
