package repro_test

// Per-layer microbenchmarks on the depth-7, 3-process register workload
// of bench_explore_test.go: one layer of what a DFS node pays at a time,
// along a fixed walk of the workload's full schedule tree (every node
// the plain monitor run visits, 2,941 of them). BENCH_explore.json
// gates their node counts and allocations like the end-to-end sections;
// their ns/op is advisory.

import (
	"testing"

	"repro/internal/safety"
	"repro/internal/sim"
	"repro/slx/hist"
	"repro/slx/run"
)

// registerSession opens a session on the workload, fingerprinting when
// fp is set.
func registerSession(b *testing.B, fp bool) *sim.Session {
	b.Helper()
	sess, err := sim.NewSession(sim.SessionConfig{
		Procs:       3,
		Object:      &benchRegister{v: 0},
		NewEnv:      registerScript,
		Fingerprint: fp,
	})
	if err != nil {
		b.Fatal(err)
	}
	return sess
}

// registerWalk is the fixed walk: from the session's current node it
// visits every node of the tree below, to depth 7, in depth-first
// order. It descends by Extend, calls visit with the node's depth and
// the events its decision recorded, and returns to the parent by
// Restore, to one pooled mark per branch point. ready holds a reusable
// buffer per depth, so the walk itself allocates nothing once warm. It
// returns the number of nodes visited, the root included.
func registerWalk(b *testing.B, sess *sim.Session, ready *[8][]int, depth int, visit func(depth int, delta hist.History)) int {
	nodes := 1
	if depth == 7 {
		return nodes
	}
	ready[depth] = sess.ReadyAppend(ready[depth][:0])
	if len(ready[depth]) == 0 {
		return nodes
	}
	m := sess.Mark()
	for _, id := range ready[depth] {
		if _, err := sess.Restore(m); err != nil {
			b.Fatal(err)
		}
		info, err := sess.Extend(run.Decision{Proc: id})
		if err != nil {
			b.Fatal(err)
		}
		visit(depth+1, info.Delta)
		nodes += registerWalk(b, sess, ready, depth+1, visit)
	}
	if _, err := sess.Restore(m); err != nil {
		b.Fatal(err)
	}
	sess.Release(m)
	return nodes
}

// BenchmarkSessionFingerprint measures the session layer of a cached
// DFS: per op, a fresh session walks the tree, fingerprinting every
// node after its Extend.
func BenchmarkSessionFingerprint(b *testing.B) {
	b.ReportAllocs()
	var ready [8][]int
	for k := range ready {
		ready[k] = make([]int, 0, 3)
	}
	var first uint64
	nodes := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess := registerSession(b, true)
		var sum uint64
		fingerprint := func(int, hist.History) {
			fp, ok := sess.Fingerprint()
			if !ok {
				b.Fatal("the register workload must fingerprint")
			}
			sum += fp
		}
		fingerprint(0, nil)
		nodes = registerWalk(b, sess, &ready, 0, fingerprint)
		sess.Close()
		if i == 0 {
			first = sum
		} else if sum != first {
			b.Fatal("the walk's fingerprints changed between ops")
		}
	}
	b.ReportMetric(float64(nodes), "prefixes")
}

// BenchmarkLinMonitorStateDigest measures the monitor-digest layer of a
// cached DFS: the linearizability monitor of every node of the walk,
// each forked from its parent's and stepped through the node's events,
// is built once; an op digests all of them. The shared table's caches
// are warmed first, as a cached exploration's are after its first
// visits, so an op allocates nothing.
func BenchmarkLinMonitorStateDigest(b *testing.B) {
	b.ReportAllocs()
	sess := registerSession(b, false)
	defer sess.Close()
	var ready [8][]int
	var stack [8]*safety.LinMonitor
	stack[0] = safety.NewLinMonitor(safety.RegisterSpec{Initial: 0})
	met := []*safety.LinMonitor{stack[0]}
	registerWalk(b, sess, &ready, 0, func(depth int, delta hist.History) {
		m := stack[depth-1].Fork(nil).(*safety.LinMonitor)
		for _, e := range delta {
			if !m.Step(e) {
				b.Fatalf("the register workload is linearizable, but %v was rejected", e)
			}
		}
		stack[depth] = m
		met = append(met, m)
	})
	digest := func() (sink uint64) {
		for _, m := range met {
			d, ok := m.StateDigest()
			if !ok {
				b.Fatal("the register workload's monitors must digest")
			}
			sink ^= d
		}
		return sink
	}
	want := digest()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if digest() != want {
			b.Fatal("a monitor's digest changed between ops")
		}
	}
	b.ReportMetric(float64(len(met)), "prefixes")
}
