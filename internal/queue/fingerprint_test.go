package queue

import (
	"errors"
	"testing"

	"repro/internal/explore"
	"repro/internal/history"
	"repro/internal/safety"
	"repro/internal/sim"
)

// TestLockedFingerprintAcrossSchedules: two schedules that leave the
// locked queue in the same configuration — same content, lock free,
// both processes idle — fingerprint identically, and different content
// fingerprints differently.
func TestLockedFingerprintAcrossSchedules(t *testing.T) {
	run := func(script map[int][]sim.Invocation, procs []int) *sim.Result {
		t.Helper()
		res := sim.Run(sim.Config{
			Procs:       2,
			Object:      NewLocked(),
			Env:         sim.Script(script),
			Scheduler:   sim.FixedProcs(procs),
			MaxSteps:    len(procs) + 1,
			Fingerprint: true,
		})
		if res.Err != nil {
			t.Fatalf("run failed: %v", res.Err)
		}
		if !res.Fingerprinted {
			t.Fatal("locked queue run did not fingerprint")
		}
		return res
	}
	// One enq by each process, run to quiescence in both orders: the
	// queue contents differ ([a b] vs [b a]), so fingerprints differ —
	// but each order replayed twice fingerprints identically.
	script := map[int][]sim.Invocation{
		1: {{Op: "enq", Arg: "a"}},
		2: {{Op: "enq", Arg: "b"}},
	}
	steps := make([]int, 0, 32)
	for i := 0; i < 16; i++ {
		steps = append(steps, 1)
	}
	for i := 0; i < 16; i++ {
		steps = append(steps, 2)
	}
	p1First := run(script, steps)
	p1FirstAgain := run(script, steps)
	if p1First.Fingerprint != p1FirstAgain.Fingerprint {
		t.Error("identical runs fingerprint differently")
	}
	rev := make([]int, len(steps))
	for i, p := range steps {
		rev[i] = 3 - p
	}
	p2First := run(script, rev)
	if p1First.Fingerprint == p2First.Fingerprint {
		t.Error("different queue contents ([a b] vs [b a]) fingerprint equal")
	}
}

// TestCASQueueNotFingerprintable pins the deliberate opt-out: the
// Treiber-style queue compares *qstate pointers in its CAS, so a
// content fingerprint would equate ABA-distinct states (deq(x);enq(x)
// restores the content but not the pointer a stalled process holds).
// It must therefore NOT implement sim.Fingerprintable.
func TestCASQueueNotFingerprintable(t *testing.T) {
	var obj sim.Object = NewCASQueue()
	if _, ok := obj.(sim.Fingerprintable); ok {
		t.Fatal("CASQueue implements Fingerprintable; its CAS is pointer-identity-sensitive, so content fingerprints are unsound for it")
	}
	var locked sim.Object = NewLocked()
	if _, ok := locked.(sim.Fingerprintable); !ok {
		t.Fatal("Locked queue lost its Fingerprintable hook")
	}
}

// linSet adapts the incremental linearizability monitor to
// explore.MonitorSet, forwarding the digest hook so the state cache can
// key on the monitor's residual state.
type linSet struct{ m safety.Monitor }

func (s *linSet) Step(e history.Event) error {
	if !s.m.Step(e) {
		return errors.New("queue linearizability violated")
	}
	return nil
}

func (s *linSet) Fork(explore.MonitorSet) explore.MonitorSet { return &linSet{m: s.m.Fork(nil)} }

func (s *linSet) StateDigest() (uint64, bool) {
	d, ok := s.m.(history.Digester)
	if !ok {
		return 0, false
	}
	return d.StateDigest()
}

// TestLockedQueueExploreCachedVerdict: exploring the locked queue with
// the state cache reaches the same linearizability verdict as without,
// while pruning revisited states. (The monitor is the generic JIT
// linearizability monitor over QueueSpec, exercising the LinMonitor
// digest on a spec with real sequential state.)
func TestLockedQueueExploreCachedVerdict(t *testing.T) {
	runExplore := func(cache bool) *explore.Stats {
		st, err := explore.Run(explore.Config{
			Procs:     2,
			NewObject: func() sim.Object { return NewLocked() },
			NewEnv: func() sim.Environment {
				return sim.Script(map[int][]sim.Invocation{
					1: {{Op: "enq", Arg: "a"}, {Op: "deq"}},
					2: {{Op: "enq", Arg: "b"}},
				})
			},
			Depth: 10,
			NewMonitors: func() explore.MonitorSet {
				return &linSet{m: safety.NewLinMonitor(safety.QueueSpec{})}
			},
			Cache: cache,
		})
		if err != nil {
			t.Fatalf("locked queue must be linearizable at this depth (cache=%v): %v", cache, err)
		}
		return st
	}
	plain := runExplore(false)
	cached := runExplore(true)
	if cached.CacheHits == 0 {
		t.Error("state cache hit nothing on the locked queue workload")
	}
	if cached.Prefixes >= plain.Prefixes {
		t.Errorf("cache did not reduce explored prefixes: %d vs %d", cached.Prefixes, plain.Prefixes)
	}
	t.Logf("locked queue: prefixes plain=%d cached=%d hits=%d", plain.Prefixes, cached.Prefixes, cached.CacheHits)
}
