package slx_test

// Cross-checks of the state-fingerprint cache through the public API:
// for every example object, Explore with WithStateCache must return the
// identical verdict as exploration without it — with POR off and on, on
// clean objects and on seeded-bug objects alike — and a cached witness
// must replay to a real violation. This is the acceptance gate of the
// cache's soundness story (see DESIGN.md "State caching"): the cache key
// combines the simulator's configuration fingerprint with the property
// monitors' canonical residual-state digests, so a hit implies the
// already-explored subtree judged the same futures the pruned one would.

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/history"
	"repro/slx"
	"repro/slx/hist"
)

// TestExploreCacheVerdictsMatch is the public-API acceptance gate: for
// every example object the Explore verdicts with and without
// WithStateCache are identical — per property, with POR off and on —
// violating objects included.
func TestExploreCacheVerdictsMatch(t *testing.T) {
	for name, tc := range porCases() {
		tc := tc
		for _, por := range []bool{false, true} {
			sub := name + "/por=off"
			if por {
				sub = name + "/por=on"
			}
			t.Run(sub, func(t *testing.T) {
				base := tc.opts[:len(tc.opts):len(tc.opts)]
				if por {
					base = append(base, slx.WithPOR())
					base = base[:len(base):len(base)]
				}
				plain, err := slx.New(base...).Explore(tc.props...)
				if err != nil {
					t.Fatalf("explore: %v", err)
				}
				cached, err := slx.New(append(base, slx.WithStateCache())...).Explore(tc.props...)
				if err != nil {
					t.Fatalf("cached explore: %v", err)
				}
				if plain.OK() != cached.OK() {
					t.Fatalf("verdicts differ: plain OK=%v, cached OK=%v\nplain: %s\ncached: %s",
						plain.OK(), cached.OK(), plain, cached)
				}
				if !plain.OK() {
					pv, cv := plain.Failures()[0], cached.Failures()[0]
					if pv.Property != cv.Property {
						t.Errorf("different properties failed: plain %q, cached %q", pv.Property, cv.Property)
					}
					if cv.Witness == nil {
						t.Error("cached failure carries no witness")
					}
				}
				if plain.CacheHits != 0 {
					t.Errorf("cache off reported %d hits, want 0", plain.CacheHits)
				}
				if cached.Prefixes > plain.Prefixes {
					t.Errorf("cached exploration explored more prefixes (%d) than plain (%d)", cached.Prefixes, plain.Prefixes)
				}
				t.Logf("prefixes plain=%d cached=%d hits=%d ok=%v", plain.Prefixes, cached.Prefixes, cached.CacheHits, plain.OK())
			})
		}
	}
}

// TestExploreCacheWitnessReplays checks a violation witness found with
// the cache on reproduces its violation through Checker.Replay.
func TestExploreCacheWitnessReplays(t *testing.T) {
	tc := porCases()["racy-lock/violation"]
	prop := tc.props[0]
	rep, err := slx.New(append(tc.opts, slx.WithStateCache())...).Explore(prop)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if rep.OK() {
		t.Fatal("racy lock must violate mutual exclusion")
	}
	replay, err := slx.New(tc.opts[:len(tc.opts):len(tc.opts)]...).Replay(rep.Witness(), prop)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if replay.OK() {
		t.Errorf("witness %v replayed clean:\n%s", rep.Witness(), replay)
	}
}

// monitorless is a custom safety property whose Spawn returns nil: its
// batch Check works, but it has no monitor for Explore to step.
type monitorless struct{}

func (monitorless) Name() string           { return "monitorless" }
func (monitorless) Kind() slx.PropertyKind { return slx.Safety }
func (monitorless) Spawn() slx.Monitor     { return nil }
func (monitorless) Check(*slx.Execution) slx.Verdict {
	return slx.Verdict{Property: "monitorless", Kind: slx.Safety, Holds: true}
}

// TestExploreCacheRequiresMonitors pins the soundness guard: the cache
// keys on monitor state digests, so a safety property without a monitor
// is rejected under WithStateCache too.
func TestExploreCacheRequiresMonitors(t *testing.T) {
	tc := porCases()["register/linearizability"]
	_, err := slx.New(append(tc.opts, slx.WithStateCache())...).Explore(monitorless{})
	if err == nil || !strings.Contains(err.Error(), `"monitorless"`) {
		t.Fatalf("WithStateCache over a monitorless property must be rejected, got %v", err)
	}
}

// TestExploreRejectsMonitorlessSafety: Explore judges every property
// through monitors, so ValidateExplore and Explore reject a safety
// property whose Spawn returns nil with one message, in exhaustive and
// sampled mode alike, pointing at the constructors that spawn one.
func TestExploreRejectsMonitorlessSafety(t *testing.T) {
	tc := porCases()["register/linearizability"]
	var msgs []string
	for _, mode := range [][]slx.Option{nil, {slx.WithSample(10, 2)}} {
		c := slx.New(append(tc.opts[:len(tc.opts):len(tc.opts)], mode...)...)
		verr := c.ValidateExplore(monitorless{})
		if verr == nil {
			t.Fatalf("mode %d: ValidateExplore accepted a monitorless safety property", len(msgs))
		}
		if _, eerr := c.Explore(monitorless{}); eerr == nil || eerr.Error() != verr.Error() {
			t.Fatalf("Explore said %q, ValidateExplore said %q", eerr, verr)
		}
		msgs = append(msgs, verr.Error())
	}
	if msgs[0] != msgs[1] {
		t.Errorf("exhaustive and sampled messages differ:\n  %s\n  %s", msgs[0], msgs[1])
	}
	for _, want := range []string{`"monitorless"`, "SafetyFunc", "MonitoredSafety"} {
		if !strings.Contains(msgs[0], want) {
			t.Errorf("message %q does not mention %s", msgs[0], want)
		}
	}
}

// TestWorkersValidated pins the WithWorkers contract: values below 1
// are rejected up front with a message naming the workers field (the
// service's 400), and valid counts are recorded in Report.Workers.
func TestWorkersValidated(t *testing.T) {
	tc := porCases()["register/linearizability"]
	for _, n := range []int{-3, 0} {
		_, err := slx.New(append(tc.opts[:len(tc.opts):len(tc.opts)], slx.WithWorkers(n))...).Explore(tc.props...)
		if err == nil || !strings.Contains(err.Error(), "workers") {
			t.Errorf("WithWorkers(%d): want a workers validation error, got %v", n, err)
		}
	}
	for _, n := range []int{1, 4} {
		rep, err := slx.New(append(tc.opts[:len(tc.opts):len(tc.opts)], slx.WithWorkers(n))...).Explore(tc.props...)
		if err != nil {
			t.Fatalf("explore with %d workers: %v", n, err)
		}
		if rep.Workers != n {
			t.Errorf("WithWorkers(%d): Report.Workers = %d, want %d", n, rep.Workers, n)
		}
		if !rep.OK() {
			t.Errorf("WithWorkers(%d): unexpected violation: %s", n, rep)
		}
	}
}

// TestExploreCacheParallelVerdictsMatch checks verdicts stay identical
// when the cache, POR and the work-stealing scheduler compose, on a
// clean and on a violating object, and on the TM objects, whose
// monitor forks share completed transaction records and the history's
// backing array across workers.
func TestExploreCacheParallelVerdictsMatch(t *testing.T) {
	for _, name := range []string{"register/linearizability", "racy-lock/violation", "commit-adopt/crashes+workers",
		"i12/property-s", "globalcas/opacity", "dstm/opacity"} {
		tc := porCases()[name]
		t.Run(name, func(t *testing.T) {
			seq, err := slx.New(tc.opts[:len(tc.opts):len(tc.opts)]...).Explore(tc.props...)
			if err != nil {
				t.Fatalf("sequential explore: %v", err)
			}
			par, err := slx.New(append(tc.opts[:len(tc.opts):len(tc.opts)],
				slx.WithStateCache(), slx.WithPOR(), slx.WithWorkers(4))...).Explore(tc.props...)
			if err != nil {
				t.Fatalf("parallel cached explore: %v", err)
			}
			if seq.OK() != par.OK() {
				t.Fatalf("verdicts differ: sequential OK=%v, parallel+cache+por OK=%v", seq.OK(), par.OK())
			}
			if !seq.OK() {
				// The parallel witness must reproduce the violation, even if
				// the shared cache made a different equivalent witness win.
				replay, err := slx.New(tc.opts[:len(tc.opts):len(tc.opts)]...).Replay(par.Witness(), tc.props...)
				if err != nil {
					t.Fatalf("replay: %v", err)
				}
				if replay.OK() {
					t.Errorf("parallel witness %v replayed clean", par.Witness())
				}
			}
		})
	}
}

// TestExploreCacheParallelStress hammers the cache + POR + work-stealing
// composition on the seeded-bug objects: across repetitions, a violation
// must never be missed. This pins the visited-set completeness invariant
// under work-stealing — a node that hands child subtrees to the pool must
// not let any ancestor publish a cache entry while those tasks are still
// pending, or two premature entries can cross-prune each other's
// unexplored subtrees and lose the violation. Run with -race in CI.
func TestExploreCacheParallelStress(t *testing.T) {
	for _, name := range []string{"racy-lock/violation", "commit-adopt/crashes+workers"} {
		tc := porCases()[name]
		seq, err := slx.New(tc.opts[:len(tc.opts):len(tc.opts)]...).Explore(tc.props...)
		if err != nil {
			t.Fatalf("%s: sequential explore: %v", name, err)
		}
		for i := 0; i < 15; i++ {
			par, err := slx.New(append(tc.opts[:len(tc.opts):len(tc.opts)],
				slx.WithStateCache(), slx.WithPOR(), slx.WithWorkers(4))...).Explore(tc.props...)
			if err != nil {
				t.Fatalf("%s run %d: parallel cached explore: %v", name, i, err)
			}
			if seq.OK() != par.OK() {
				t.Fatalf("%s run %d: verdicts differ: sequential OK=%v, parallel+cache+por OK=%v",
					name, i, seq.OK(), par.OK())
			}
		}
	}
}

// TestExploreCacheSkipsUnfingerprintedObjects double-checks graceful
// degradation: an object without the fingerprint hook explores the
// identical tree under WithStateCache, with zero hits.
func TestExploreCacheSkipsUnfingerprintedObjects(t *testing.T) {
	tc := porCases()["i12/property-s"] // TM objects deliberately have no hook (pointer-identity CAS)
	plain, err := slx.New(tc.opts[:len(tc.opts):len(tc.opts)]...).Explore(tc.props...)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	cached, err := slx.New(append(tc.opts[:len(tc.opts):len(tc.opts)], slx.WithStateCache())...).Explore(tc.props...)
	if err != nil {
		t.Fatalf("cached explore: %v", err)
	}
	if cached.CacheHits != 0 {
		t.Errorf("unfingerprintable object produced %d cache hits, want 0", cached.CacheHits)
	}
	if cached.Prefixes != plain.Prefixes || cached.SimSteps != plain.SimSteps {
		t.Errorf("cache changed the explored tree on an unfingerprintable object: %d/%d vs %d/%d",
			cached.Prefixes, cached.SimSteps, plain.Prefixes, plain.SimSteps)
	}
}

// TestBatchMonitorDigest: the batch monitor's residual state is its
// history, so its digest must tell histories apart exactly — equal
// histories digest equal, different ones differently, values %v renders
// alike included — and must carry the property name.
func TestBatchMonitorDigest(t *testing.T) {
	digest := func(name string, h hist.History) uint64 {
		t.Helper()
		m := slx.BatchMonitor(name, func(hist.History) bool { return true })
		for _, e := range h {
			m.Step(e)
		}
		d, ok := m.(slx.Digester).StateDigest()
		if !ok {
			t.Fatalf("batch monitor cannot digest %s", h)
		}
		return d
	}
	values := []hist.Value{nil, 1, "1", [2]string{"x y", ""}, [2]string{"x", "y "}}
	r := rand.New(rand.NewSource(1))
	seen := make(map[uint64]hist.History)
	for i := 0; i < 2000; i++ {
		var h hist.History
		for n := r.Intn(4); n > 0; n-- {
			p, v := 1+r.Intn(2), values[r.Intn(len(values))]
			if r.Intn(2) == 0 {
				h = append(h, hist.Invoke(p, "w", v))
			} else {
				h = append(h, hist.Response(p, "w", v))
			}
		}
		d := digest("p", h)
		if prev, ok := seen[d]; ok && !prev.Equal(h) {
			t.Fatalf("different histories share a digest:\n%s\n%s", prev, h)
		}
		seen[d] = h
		if digest("p", h.Clone()) != d {
			t.Fatalf("equal histories digest differently: %s", h)
		}
		if digest("q", h) == d {
			t.Fatalf("the property name does not enter the digest: %s", h)
		}
	}
	if len(seen) < 100 {
		t.Fatalf("only %d distinct histories generated", len(seen))
	}
}

// TestBatchMonitorDigestPin pins the batch monitor's digest values: over
// random histories, the digest after random events of the monitor and of
// a fork taken at a random point, and at the end, under a predicate that
// fails now and then, is folded into one word. It was recorded when the monitor folded
// its history digest eagerly on every Step; the digest is now folded
// only when asked, and must keep every value, so cached explorations
// keep their hits.
func TestBatchMonitorDigestPin(t *testing.T) {
	const want = 14897727338833634124
	values := []hist.Value{nil, 1, "1", [2]string{"x y", ""}}
	r := rand.New(rand.NewSource(3))
	sum := history.DigestSeed()
	fold := func(m slx.Monitor) {
		d, ok := m.(slx.Digester).StateDigest()
		if !ok {
			t.Fatal("batch monitor cannot digest")
		}
		sum = history.DigestWord(sum, d)
	}
	for i := 0; i < 500; i++ {
		var h hist.History
		for n := 1 + r.Intn(8); n > 0; n-- {
			p, v := 1+r.Intn(2), values[r.Intn(len(values))]
			if r.Intn(2) == 0 {
				h = append(h, hist.Invoke(p, "w", v))
			} else {
				h = append(h, hist.Response(p, "w", v))
			}
		}
		limit := 1 + r.Intn(len(h)+1)
		m := slx.BatchMonitor("p", func(h hist.History) bool { return len(h) < limit })
		forkAt := r.Intn(len(h))
		var fork slx.Monitor
		for k, e := range h {
			if k == forkAt {
				fork = m.Fork()
			}
			m.Step(e)
			if r.Intn(3) == 0 {
				fold(m)
			}
			if fork != nil {
				fork.Step(e)
				if r.Intn(3) == 0 {
					fold(fork)
				}
			}
		}
		fold(m)
	}
	if sum != want {
		t.Fatalf("pinned word %d, want %d", sum, uint64(want))
	}
}
