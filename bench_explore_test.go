package repro_test

// Exploration-throughput benchmarks for the incremental execution
// engine, the incremental monitors and sleep-set partial-order
// reduction: a depth-7, 3-process linearizability exploration through
// the public slx API — on the default path (snapshot sessions +
// incremental monitors), on the session's from-root strategy
// (slx.WithReplayExecution), and with POR/cache/workers. Each acceptance
// bar is asserted by a deterministic test, so regressions fail the
// benchmark smoke run, not just a human reading EXPERIMENTS.md:
// TestExploreContinuationSteps gates the continuation engine's
// zero-resimulation contract, TestExploreLinearizabilityOneJudgmentPerEvent
// the monitors' one judgment per event, TestExplorePORPrefixReduction
// and TestExploreCacheReduction the prefix reductions. All benchmarks
// report -benchmem allocation figures (the committed numbers live in
// BENCH_explore.json's allocs_per_op/bytes_per_op fields, which the
// bench smoke run enforces as hard gates via tools/benchtrend).

import (
	"testing"

	"repro/internal/queue"
	"repro/slx"
	"repro/slx/check"
	"repro/slx/consensus"
	"repro/slx/hist"
	"repro/slx/run"
	"repro/slx/tm"
)

// benchRegister is a linearizable read/write register: every access is a
// single atomic step, declared to the footprint tracker so POR can
// commute independent steps, observed and fingerprinted so the state
// cache can deduplicate configurations, and snapshottable + stepped so
// exploration runs on the continuation session engine.
type benchRegister struct {
	v hist.Value
	// frames memoizes the continuation frames by invocation: frames are
	// immutable (Fork returns the receiver), so one frame per distinct
	// invocation serves every node of the exploration tree — Begin on
	// the hot path allocates nothing after warmup.
	frames map[run.Invocation]*benchRegisterFrame
}

func (r *benchRegister) Apply(p *run.Proc, inv run.Invocation) hist.Value {
	var out hist.Value
	switch inv.Op {
	case "read":
		p.Exec("read", func() {
			p.Access("r", false)
			out = r.v
			p.Observe(out)
		})
	case "write":
		p.Exec("write", func() {
			out = hist.OK
			p.Access("r", true)
			r.v = inv.Arg
		})
	}
	return out
}

// benchRegisterFrame is one in-flight operation: a single access window.
// The frame is immutable, so Fork returns the receiver.
type benchRegisterFrame struct {
	r   *benchRegister
	inv run.Invocation
}

// Begin implements run.Stepped.
func (r *benchRegister) Begin(p *run.Proc, inv run.Invocation) (run.Frame, hist.Value, run.StepStatus) {
	switch inv.Op {
	case "read", "write":
		f := r.frames[inv]
		if f == nil {
			if r.frames == nil {
				r.frames = make(map[run.Invocation]*benchRegisterFrame)
			}
			f = &benchRegisterFrame{r: r, inv: inv}
			r.frames[inv] = f
		}
		return f, nil, run.StepPaused
	}
	return nil, nil, run.StepDone
}

// Step implements run.Frame.
func (f *benchRegisterFrame) Step(p *run.Proc) (hist.Value, run.StepStatus) {
	if f.inv.Op == "read" {
		p.Access("r", false)
		out := f.r.v
		p.Observe(out)
		return out, run.StepDone
	}
	p.Access("r", true)
	f.r.v = f.inv.Arg
	return hist.OK, run.StepDone
}

// Fork implements run.Frame.
func (f *benchRegisterFrame) Fork() run.Frame { return f }

// Footprints implements run.Footprinted: the register is the only shared
// state and both operations declare their access.
func (r *benchRegister) Footprints() bool { return true }

// Fingerprint implements run.Fingerprintable: the single value, compared
// only by content, is the whole shared state.
func (r *benchRegister) Fingerprint(f *run.Fingerprinter) {
	f.Str("r")
	f.Val(r.v)
}

// Snapshot implements run.Snapshottable.
func (r *benchRegister) Snapshot() any { return r.v }

// Restore implements run.Snapshottable.
func (r *benchRegister) Restore(s any) { r.v = s }

// linExploreChecker is the depth-7, 3-process register workload: each
// process writes its id, then reads.
func linExploreChecker(extra ...slx.Option) *slx.Checker {
	opts := []slx.Option{
		slx.WithObject(func() run.Object { return &benchRegister{v: 0} }),
		slx.WithEnv(func() run.Environment {
			return run.Script(map[int][]run.Invocation{
				1: {{Op: "write", Arg: 1}, {Op: "read"}},
				2: {{Op: "write", Arg: 2}, {Op: "read"}},
				3: {{Op: "write", Arg: 3}, {Op: "read"}},
			})
		}),
		slx.WithProcs(3),
		slx.WithDepth(7),
	}
	return slx.New(append(opts, extra...)...)
}

func linProp() slx.Property { return check.Linearizability(check.RegisterSpec{Initial: 0}) }

// TestExploreLinearizabilityOneJudgmentPerEvent is the acceptance check
// of the incremental monitors: on the depth-7, 3-process
// linearizability exploration every simulator step records exactly one
// event, and the monitor judges each event once per path, so the
// property-event scans must equal the simulator steps exactly — 2940 on
// this tree, no prefix re-judged and no event skipped.
func TestExploreLinearizabilityOneJudgmentPerEvent(t *testing.T) {
	rep, err := linExploreChecker().Explore(linProp())
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("register must be linearizable on every prefix: %s", rep.Failures()[0])
	}
	const steps = 2940
	if rep.SimSteps != steps || rep.EventScans != rep.SimSteps {
		t.Fatalf("scanned %d property events over %d simulator steps, want exactly one judgment per event on the %d-step tree",
			rep.EventScans, rep.SimSteps, steps)
	}
	t.Logf("depth-7 3-proc linearizability: prefixes=%d simSteps=%d eventScans=%d", rep.Prefixes, rep.SimSteps, rep.EventScans)
}

// TestExplorePORPrefixReduction is the acceptance check of sleep-set
// partial-order reduction: on the depth-7, 3-process linearizability
// exploration, POR must explore at most half the prefixes of the full
// tree, reach the same verdict, and account for every skipped subtree in
// Report.Pruned.
func TestExplorePORPrefixReduction(t *testing.T) {
	full, err := linExploreChecker().Explore(linProp())
	if err != nil {
		t.Fatalf("full explore: %v", err)
	}
	por, err := linExploreChecker(slx.WithPOR()).Explore(linProp())
	if err != nil {
		t.Fatalf("POR explore: %v", err)
	}
	if !full.OK() || !por.OK() {
		t.Fatalf("register must be linearizable on every prefix (full OK=%v, POR OK=%v)", full.OK(), por.OK())
	}
	if full.Pruned != 0 {
		t.Fatalf("full exploration must not prune, pruned %d subtrees", full.Pruned)
	}
	if por.Pruned == 0 {
		t.Fatal("POR pruned nothing on a workload with independent steps")
	}
	if por.Prefixes*2 > full.Prefixes {
		t.Fatalf("POR explored %d prefixes, want ≤ half of full exploration's %d", por.Prefixes, full.Prefixes)
	}
	t.Logf("depth-7 3-proc linearizability: prefixes full=%d por=%d (%.1fx fewer), pruned=%d, simSteps full=%d por=%d",
		full.Prefixes, por.Prefixes, float64(full.Prefixes)/float64(por.Prefixes), por.Pruned, full.SimSteps, por.SimSteps)
}

// TestExploreContinuationSteps is the acceptance gate of the
// continuation execution engine, superseding the retired step-ratio
// gate (the old engine rebuilt in-flight operations by re-simulation
// after every restore and was gated at ≤2.0 total steps per prefix; the
// continuation engine restores control state by struct copy, so the
// bound is exact). On the depth-7, 3-process linearizability
// exploration: zero re-simulation steps, exactly one fresh simulator
// step per non-root prefix, and the from-root strategy re-measured on
// the identical tree must still dominate by ≥2×. All counters are
// deterministic at one worker, so this gates in CI without wall-clock
// noise.
func TestExploreContinuationSteps(t *testing.T) {
	inc, err := linExploreChecker().Explore(linProp())
	if err != nil {
		t.Fatalf("incremental explore: %v", err)
	}
	rep, err := linExploreChecker(slx.WithReplayExecution()).Explore(linProp())
	if err != nil {
		t.Fatalf("replay explore: %v", err)
	}
	if !inc.OK() || !rep.OK() {
		t.Fatalf("register must be linearizable on every prefix (incremental OK=%v, replay OK=%v)", inc.OK(), rep.OK())
	}
	if inc.Prefixes != rep.Prefixes {
		t.Fatalf("engines explored different trees: incremental %d prefixes, replay %d", inc.Prefixes, rep.Prefixes)
	}
	if inc.Resims != 0 {
		t.Fatalf("continuation engine re-simulated %d steps; restores must be struct copies, never re-execution", inc.Resims)
	}
	if inc.SimSteps != inc.Prefixes-1 {
		t.Fatalf("continuation engine spent %d fresh steps over %d prefixes, want exactly one per non-root prefix (%d)",
			inc.SimSteps, inc.Prefixes, inc.Prefixes-1)
	}
	ratio := float64(inc.SimSteps) / float64(inc.Prefixes)
	repRatio := float64(rep.SimSteps) / float64(rep.Prefixes)
	if repRatio < 2*ratio {
		t.Fatalf("replay engine's %.2f steps per prefix no longer dominates incremental's %.2f: the benchmark stopped measuring what it claims",
			repRatio, ratio)
	}
	t.Logf("depth-7 3-proc linearizability: steps/prefix incremental=%.2f (sim %d, resim 0) vs replay=%.2f (sim %d), %d prefixes",
		ratio, inc.SimSteps, repRatio, rep.SimSteps, inc.Prefixes)
}

// TestExploreCacheReduction is the acceptance check of the state cache:
// on the depth-7, 3-process linearizability exploration, caching must
// explore at most half the prefixes of the full tree, reach the same
// verdict, and account for every skipped subtree in Report.CacheHits —
// and it must still compound with POR (strictly fewer prefixes than POR
// alone; the margin is smaller there because POR already removes many
// of the convergent interleavings the cache would merge, and a cache
// hit under POR additionally requires the stored sleep set to be
// covered by the current one).
func TestExploreCacheReduction(t *testing.T) {
	full, err := linExploreChecker().Explore(linProp())
	if err != nil {
		t.Fatalf("full explore: %v", err)
	}
	cached, err := linExploreChecker(slx.WithStateCache()).Explore(linProp())
	if err != nil {
		t.Fatalf("cached explore: %v", err)
	}
	if !full.OK() || !cached.OK() {
		t.Fatalf("register must be linearizable on every prefix (full OK=%v, cached OK=%v)", full.OK(), cached.OK())
	}
	if full.CacheHits != 0 {
		t.Fatalf("cache off must not hit, got %d", full.CacheHits)
	}
	if cached.CacheHits == 0 {
		t.Fatal("cache hit nothing on a workload full of convergent interleavings")
	}
	if cached.Prefixes*2 > full.Prefixes {
		t.Fatalf("cached exploration explored %d prefixes, want ≤ half of full exploration's %d", cached.Prefixes, full.Prefixes)
	}
	por, err := linExploreChecker(slx.WithPOR()).Explore(linProp())
	if err != nil {
		t.Fatalf("POR explore: %v", err)
	}
	both, err := linExploreChecker(slx.WithPOR(), slx.WithStateCache()).Explore(linProp())
	if err != nil {
		t.Fatalf("POR+cache explore: %v", err)
	}
	if !por.OK() || !both.OK() {
		t.Fatalf("register must be linearizable on every prefix (por OK=%v, por+cache OK=%v)", por.OK(), both.OK())
	}
	if both.CacheHits == 0 || both.Prefixes >= por.Prefixes {
		t.Fatalf("POR+cache must still deduplicate on top of POR: explored %d prefixes (POR-only %d), %d hits",
			both.Prefixes, por.Prefixes, both.CacheHits)
	}
	t.Logf("depth-7 3-proc linearizability: prefixes full=%d cache=%d (%.1fx fewer, %d hits), por=%d por+cache=%d (%.1fx fewer, %d hits)",
		full.Prefixes, cached.Prefixes, float64(full.Prefixes)/float64(cached.Prefixes), cached.CacheHits,
		por.Prefixes, both.Prefixes, float64(por.Prefixes)/float64(both.Prefixes), both.CacheHits)
}

// BenchmarkExploreLinearizabilityMonitor measures the default path:
// incremental monitors on the incremental execution engine.
func BenchmarkExploreLinearizabilityMonitor(b *testing.B) {
	benchExploreLinearizability(b, linExploreChecker())
}

// BenchmarkExploreLinearizabilityReplay measures the session's
// from-root strategy over the blocking Apply for comparison.
func BenchmarkExploreLinearizabilityReplay(b *testing.B) {
	benchExploreLinearizability(b, linExploreChecker(slx.WithReplayExecution()))
}

// BenchmarkExploreLinearizabilityPOR measures the monitor path with
// sleep-set partial-order reduction.
func BenchmarkExploreLinearizabilityPOR(b *testing.B) {
	benchExploreLinearizability(b, linExploreChecker(slx.WithPOR()))
}

// BenchmarkExploreLinearizabilityCache measures the monitor path with
// state-fingerprint deduplication.
func BenchmarkExploreLinearizabilityCache(b *testing.B) {
	benchExploreLinearizability(b, linExploreChecker(slx.WithStateCache()))
}

// BenchmarkExploreLinearizabilityCachePOR measures the composition of
// the state cache with partial-order reduction.
func BenchmarkExploreLinearizabilityCachePOR(b *testing.B) {
	benchExploreLinearizability(b, linExploreChecker(slx.WithPOR(), slx.WithStateCache()))
}

// BenchmarkExploreLinearizabilityWorkers4 measures the work-stealing
// scheduler at 4 workers on the plain monitor path (its wall-clock is
// compared against the retired first-level-split scheduler's committed
// numbers in BENCH_explore.json).
func BenchmarkExploreLinearizabilityWorkers4(b *testing.B) {
	benchExploreLinearizability(b, linExploreChecker(slx.WithWorkers(4)))
}

// benchRecRegister is benchRegister with the crash–recovery hooks: no
// volatile state (CrashVolatile wipes nothing) and a one-read-window
// recovery routine, so the benchmark exercises the recovery re-spawn
// machinery — crash decisions, recovery frames, epoch fingerprints —
// on an object that stays strictly linearizable throughout.
type benchRecRegister struct{ benchRegister }

func (r *benchRecRegister) CrashVolatile() {}

func (r *benchRecRegister) RecoverFrame() run.Frame { return &benchRecFrame{r: r} }

// benchRecFrame is the recovery routine: one read window.
type benchRecFrame struct{ r *benchRecRegister }

// Step implements run.Frame.
func (f *benchRecFrame) Step(p *run.Proc) (hist.Value, run.StepStatus) {
	p.Access("r", false)
	p.Observe(f.r.v)
	return nil, run.StepDone
}

// Fork implements run.Frame: the frame holds no mutable state.
func (f *benchRecFrame) Fork() run.Frame { return f }

// recExploreChecker is the crash–recovery twin of linExploreChecker:
// the same depth-7, 3-process register workload explored with one
// crash and one recovery in the failure budget.
func recExploreChecker(extra ...slx.Option) *slx.Checker {
	opts := []slx.Option{
		slx.WithObject(func() run.Object { return &benchRecRegister{benchRegister{v: 0}} }),
		slx.WithEnv(func() run.Environment {
			return run.Script(map[int][]run.Invocation{
				1: {{Op: "write", Arg: 1}, {Op: "read"}},
				2: {{Op: "write", Arg: 2}, {Op: "read"}},
				3: {{Op: "write", Arg: 3}, {Op: "read"}},
			})
		}),
		slx.WithProcs(3),
		slx.WithDepth(7),
		slx.WithCrashes(1),
		slx.WithRecoveries(1),
	}
	return slx.New(append(opts, extra...)...)
}

func strictProp() slx.Property {
	return check.StrictLinearizability(check.RegisterSpec{Initial: 0})
}

// BenchmarkExploreRecoveryMonitor measures crash–recovery exploration
// on the default incremental path: the depth-7 register workload with a
// 1-crash/1-recovery failure budget under the strict-linearizability
// monitor.
func BenchmarkExploreRecoveryMonitor(b *testing.B) {
	benchExplore(b, recExploreChecker(), strictProp())
}

// BenchmarkExploreRecoveryCachePOR measures the same recovery workload
// with partial-order reduction and the state cache composed on top —
// the configuration CI gates, because recovery epochs participate in
// both footprints and fingerprints.
func BenchmarkExploreRecoveryCachePOR(b *testing.B) {
	benchExplore(b, recExploreChecker(slx.WithPOR(), slx.WithStateCache()), strictProp())
}

// BenchmarkExploreDSTM is slxbench's dstm:xy/yx job: two processes
// loop a read-one-write-other transaction over x and y, explored for
// opacity at depth 6. DSTM allocates cells mid-run — an ownership
// record per variable on first use and a descriptor per start — so it
// exercises the snapshot strategy's restores that drop cells.
func BenchmarkExploreDSTM(b *testing.B) {
	c := slx.New(
		slx.WithProcs(2),
		slx.WithDepth(6),
		slx.WithObject(func() run.Object { return tm.NewDSTM(2) }),
		slx.WithEnv(func() run.Environment {
			return tm.TxnLoop(map[int]tm.Txn{
				1: {Accesses: []tm.Access{{Var: "x"}, {Write: true, Var: "y", Val: 11}}},
				2: {Accesses: []tm.Access{{Var: "y"}, {Write: true, Var: "x", Val: 21}}},
			})
		}),
	)
	benchExplore(b, c, check.Opacity())
}

// BenchmarkExploreQueueMonitor is slxbench's queue3 job shape: three
// processes each enqueue a string and dequeue once on the CAS-based
// queue, explored for linearizability against QueueSpec at depth 7 with
// default options. QueueSpec's states are strings rebuilt on every
// apply, so this is the section where the monitor's spec transitions
// cost most.
func BenchmarkExploreQueueMonitor(b *testing.B) {
	benchExplore(b, queueExploreChecker(), check.Linearizability(check.QueueSpec{}))
}

// BenchmarkExploreQueueCachePOR is the queue3 shape as slxbench's
// dfs-reduced workload runs it, with POR and the state cache. The
// CAS-based queue declares neither footprints nor a fingerprint, so
// both reductions stay inert, and the run measures what every branch
// point of a plain DFS copies: the in-flight frames, the monitor set
// and the sleep set.
func BenchmarkExploreQueueCachePOR(b *testing.B) {
	benchExplore(b, queueExploreChecker(slx.WithPOR(), slx.WithStateCache()), check.Linearizability(check.QueueSpec{}))
}

func queueExploreChecker(extra ...slx.Option) *slx.Checker {
	opts := []slx.Option{
		slx.WithProcs(3),
		slx.WithDepth(7),
		slx.WithObject(func() run.Object { return queue.NewCASQueue() }),
		slx.WithEnv(func() run.Environment {
			return run.Script(map[int][]run.Invocation{
				1: {{Op: "enq", Arg: "a"}, {Op: "deq"}},
				2: {{Op: "deq"}, {Op: "enq", Arg: "b"}},
				3: {{Op: "enq", Arg: "c"}, {Op: "deq"}},
			})
		}),
	}
	return slx.New(append(opts, extra...)...)
}

// BenchmarkExploreCommitAdoptCache is the README's cache workload:
// commit-adopt consensus for two processes proposing 0 and 1, explored
// for agreement and validity at depth 10 with POR and the state cache,
// so every prefix folds the object's memory into a fingerprint.
func BenchmarkExploreCommitAdoptCache(b *testing.B) {
	c := slx.New(
		slx.WithProcs(2),
		slx.WithDepth(10),
		slx.WithObject(func() run.Object { return consensus.NewCommitAdoptOF(2) }),
		slx.WithEnv(func() run.Environment {
			return consensus.ProposeOnce(map[int]hist.Value{1: 0, 2: 1})
		}),
		slx.WithPOR(),
		slx.WithStateCache(),
	)
	benchExplore(b, c, check.AgreementValidity())
}

func benchExploreLinearizability(b *testing.B, c *slx.Checker) {
	benchExplore(b, c, linProp())
}

func benchExplore(b *testing.B, c *slx.Checker, prop slx.Property) {
	b.ReportAllocs()
	prefixes := 0
	for i := 0; i < b.N; i++ {
		rep, err := c.Explore(prop)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.OK() {
			b.Fatalf("violation: %s", rep.Failures()[0])
		}
		if i == 0 {
			prefixes = rep.Prefixes
			b.ReportMetric(float64(rep.Prefixes), "prefixes")
			b.ReportMetric(float64(rep.SimSteps), "simSteps")
			b.ReportMetric(float64(rep.Resims), "resimSteps")
			b.ReportMetric(float64(rep.EventScans), "eventScans")
		}
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N*prefixes)/sec, "prefixes/sec")
	}
}
