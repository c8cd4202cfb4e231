// Durablequeue: a seeded recovery bug only crash+recover can reach. A
// persistent queue journals every enqueue in a per-process redo log
// (write intent, flush, apply, clear, flush the clear) — but its
// recovery routine rolls the log forward UNCONDITIONALLY, without
// checking whether the crashed enqueue already took effect. A crash
// between the apply and the final log clear therefore makes recovery
// enqueue the element a second time.
//
// The protocol is correct in every crash-free execution (the apply is a
// single atomic window), and correct under crashes alone (a crashed
// process never runs again, so its durable log is never replayed):
// exhaustive exploration is provably clean both without crashes and
// with WithCrashes(1) — the duplicate needs WithRecoveries(1) on top,
// where strict linearizability (crash-aware: a crashed operation
// linearizes at most once or vanishes) flags the twice-delivered
// element. Contrast internal/queue.Persistent, whose recovery guards
// the redo with the intent's pre-state and is clean under recovery.
package main

import (
	"fmt"
	"os"
	"slices"

	"repro/internal/service"
	"repro/slx"
)

func main() {
	if err := play(); err != nil {
		fmt.Fprintln(os.Stderr, "durablequeue:", err)
		os.Exit(1)
	}
}

// scenario is the service's durablequeue target — the buggy
// roll-forward queue, process 1 enqueueing once and process 2 dequeueing
// twice, and strict linearizability against the FIFO specification —
// at depth 12. One enqueue can fill the queue at most once, so a second
// successful dequeue of "a" is the duplicate. The options are clipped,
// so each append below builds its own option list.
func scenario() ([]slx.Option, slx.Property) {
	t, ok := service.LookupTarget("durablequeue")
	if !ok {
		panic("durablequeue target not registered")
	}
	return slices.Clip(append(t.Options(), slx.WithDepth(12))), t.Property()
}

func play() error {
	opts, prop := scenario()

	// Without crashes the protocol is correct: exhaustive exploration is
	// clean.
	rep, err := slx.New(opts...).Explore(prop)
	if err != nil {
		return err
	}
	fmt.Printf("no crashes:          ok=%v over %d prefixes\n", rep.OK(), rep.Prefixes)
	if !rep.OK() {
		return fmt.Errorf("crash-free exploration must be clean: %s", rep.Failures()[0])
	}

	// Crashes alone cannot reach the bug either: a crashed process never
	// replays its log.
	rep, err = slx.New(append(opts, slx.WithCrashes(1))...).Explore(prop)
	if err != nil {
		return err
	}
	fmt.Printf("crashes=1:           ok=%v over %d prefixes\n", rep.OK(), rep.Prefixes)
	if !rep.OK() {
		return fmt.Errorf("crash-only exploration must be clean: %s", rep.Failures()[0])
	}

	// Crash + recover: the roll-forward duplicate is reachable and strict
	// linearizability rejects it.
	rep, err = slx.New(append(opts, slx.WithCrashes(1), slx.WithRecoveries(1))...).Explore(prop)
	if err != nil {
		return err
	}
	fmt.Printf("crashes=1 recover=1: ok=%v over %d prefixes\n", rep.OK(), rep.Prefixes)
	if rep.OK() {
		return fmt.Errorf("recovery exploration must find the roll-forward duplicate")
	}
	witness := rep.Witness()
	fmt.Printf("violation: %s\n  witness: %v\n", rep.Failures()[0].Reason, witness)

	// The recorded witness — crash and recover decisions included —
	// replays to the same verdict.
	replay, err := slx.New(append(opts, slx.WithMaxSteps(len(witness)+1))...).Replay(witness, prop)
	if err != nil {
		return err
	}
	if replay.OK() {
		return fmt.Errorf("witness %v replayed clean", witness)
	}
	fmt.Printf("witness replay:      ok=false (%s)\n", replay.Failures()[0].Reason)
	return nil
}
