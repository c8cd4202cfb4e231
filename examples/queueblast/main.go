// Queueblast: a seeded deep bug only sampling can reach. Eight
// processes hammer a bounded FIFO queue whose enqueue silently evicts
// the oldest element once three items are buffered. Exposing the bug
// takes four completed enqueues — two granted steps each, eight steps
// minimum — plus a dequeue to observe the loss, so NO schedule of depth
// 7 can violate linearizability: exhaustive exploration at -depth 7 is
// provably clean while the bug is alive. PCT sampling at depth 24
// reaches it in a handful of schedules and hands back a replayable
// witness.
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/service"
	"repro/slx"
	"repro/slx/run"
)

func main() {
	if err := play(); err != nil {
		fmt.Fprintln(os.Stderr, "queueblast:", err)
		os.Exit(1)
	}
}

// scenario is the service's queueblast target: the buggy queue (a
// capacity of three, enqueue in two granted steps), processes 1-4
// enqueueing one value each (string payloads, as the queue
// specification requires), processes 5-8 dequeueing twice, and
// linearizability against the FIFO specification.
func scenario() service.Target {
	t, ok := service.LookupTarget("queueblast")
	if !ok {
		panic("queueblast target not registered")
	}
	return t
}

func play() error {
	tgt := scenario()
	prop := tgt.Property()

	// Exhaustive exploration below the minimal violating depth: clean,
	// and the 8-proc branching already costs hundreds of thousands of
	// prefixes.
	full, err := slx.New(append(tgt.Options(), slx.WithDepth(7))...).Explore(prop)
	if err != nil {
		return err
	}
	fmt.Printf("exhaustive -depth 7: ok=%v over %d prefixes (a violation needs 4 enqueues = 8 steps, so depth 7 cannot reach it)\n",
		full.OK(), full.Prefixes)
	if !full.OK() {
		return fmt.Errorf("depth-7 exploration must be clean: %s", full.Failures()[0])
	}

	// PCT sampling at depth 24: schedules to first bug for several
	// change-point budgets, under one fixed master seed.
	const budget = 20000
	fmt.Printf("\n%-4s %-20s %-16s %s\n", "d", "schedules-to-bug", "distinct-states", "witness")
	var witness []run.Decision
	for _, d := range []int{0, 1, 2, 3, 5, 8} {
		start := time.Now()
		rep, err := slx.New(append(tgt.Options(),
			slx.WithDepth(24),
			slx.WithSample(budget, d),
			slx.WithSeed(1),
			slx.WithWorkers(4),
		)...).Explore(prop)
		if err != nil {
			return err
		}
		if rep.OK() {
			fmt.Printf("%-4d %-20s %-16d (none in %d schedules, %.1fs)\n",
				d, "not found", rep.DistinctStates, budget, time.Since(start).Seconds())
			continue
		}
		fmt.Printf("%-4d %-20d %-16d len=%d seed=%d\n",
			d, rep.Schedules, rep.DistinctStates, len(rep.Witness()), rep.FailingSeed)
		if witness == nil {
			witness = rep.Witness()
		}
	}
	if witness == nil {
		return fmt.Errorf("sampling must find the seeded bug at some d within %d schedules", budget)
	}

	// The recorded witness replays to the same verdict.
	replay, err := slx.New(append(tgt.Options(), slx.WithMaxSteps(len(witness)+1))...).Replay(witness, prop)
	if err != nil {
		return err
	}
	if replay.OK() {
		return fmt.Errorf("witness %v replayed clean", witness)
	}
	fmt.Printf("\nwitness replay: ok=false (%s)\n", replay.Failures()[0].Reason)
	return nil
}
