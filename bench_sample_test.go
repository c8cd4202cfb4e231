package repro_test

// Sampling-throughput benchmarks for the probabilistic mass-exploration
// engine (slx.WithSample): PCT schedules over the depth-10, 3-process
// linearizability workload, on the session's default snapshot strategy
// and on its from-root strategy (slx.WithReplayExecution). The
// acceptance bar — snapshot restores measurably cheaper than from-root
// rebuilds — is gated by TestSampleSessionReuseCheaper on deterministic
// allocation counts (the two strategies grant identical simulator steps
// by construction: restoring the root mark re-executes nothing, which
// the test also pins), so regressions fail the benchmark smoke run. Committed figures live in BENCH_explore.json's "sample" and
// "sample_replay" sections.

import (
	"testing"

	"repro/internal/service"
	"repro/slx"
)

// sampleSchedules is the per-Explore schedule budget of the sampling
// benchmarks and the engine-cost gate.
const sampleSchedules = 200

// sampleChecker is the depth-10 sampling variant of the depth-7
// exhaustive workload: same register object, same 3-process
// write-then-read scripts, PCT with 3 change points under a fixed
// master seed.
func sampleChecker(extra ...slx.Option) *slx.Checker {
	opts := []slx.Option{
		slx.WithDepth(10),
		slx.WithSample(sampleSchedules, 3),
		slx.WithSeed(11),
	}
	return linExploreChecker(append(opts, extra...)...)
}

// TestSampleSessionReuseCheaper is the acceptance gate of the sampling
// strategies: per sampled schedule, the snapshot strategy must allocate
// at most 0.8x what the from-root strategy allocates (measured 0.10x:
// the monitor and property work is shared, the saving is the
// per-schedule runtime/object/environment construction and the
// goroutine handoffs a from-root rebuild repeats),
// while granting exactly the same simulator steps — the engines consult
// the strategy identically, and session reset is a root-mark restore
// that rebuilds zero steps, which the test pins via Resims == 0.
func TestSampleSessionReuseCheaper(t *testing.T) {
	sess, err := sampleChecker().Explore(linProp())
	if err != nil {
		t.Fatalf("session sample: %v", err)
	}
	repl, err := sampleChecker(slx.WithReplayExecution()).Explore(linProp())
	if err != nil {
		t.Fatalf("replay sample: %v", err)
	}
	if !sess.OK() || !repl.OK() {
		t.Fatalf("register must be linearizable on every schedule (session OK=%v, replay OK=%v)", sess.OK(), repl.OK())
	}
	if sess.Schedules != repl.Schedules || sess.SimSteps != repl.SimSteps ||
		sess.DistinctStates != repl.DistinctStates || sess.EventScans != repl.EventScans {
		t.Fatalf("engines sampled different runs:\nsession %d schedules / %d steps / %d states / %d scans\nreplay  %d schedules / %d steps / %d states / %d scans",
			sess.Schedules, sess.SimSteps, sess.DistinctStates, sess.EventScans,
			repl.Schedules, repl.SimSteps, repl.DistinctStates, repl.EventScans)
	}
	if sess.Resims != 0 {
		t.Fatalf("session reset must restore the root mark without rebuild steps, re-simulated %d", sess.Resims)
	}

	sessAllocs := testing.AllocsPerRun(5, func() {
		if _, err := sampleChecker().Explore(linProp()); err != nil {
			t.Fatal(err)
		}
	})
	replAllocs := testing.AllocsPerRun(5, func() {
		if _, err := sampleChecker(slx.WithReplayExecution()).Explore(linProp()); err != nil {
			t.Fatal(err)
		}
	})
	if sessAllocs > 0.8*replAllocs {
		t.Fatalf("session engine allocated %.0f per %d schedules, want <= 0.8x replay's %.0f",
			sessAllocs, sampleSchedules, replAllocs)
	}
	t.Logf("%d schedules depth-10: allocs session=%.0f replay=%.0f (%.2fx fewer), simSteps=%d, distinct states=%d",
		sampleSchedules, sessAllocs, replAllocs, replAllocs/sessAllocs, sess.SimSteps, sess.DistinctStates)
}

// BenchmarkSampleThroughput measures the default sampling path: PCT
// schedules on one persistent session reset by root-mark restore.
func BenchmarkSampleThroughput(b *testing.B) {
	benchSampleThroughput(b, sampleChecker())
}

// BenchmarkSampleThroughputReplay measures the session's from-root
// strategy (the one used for objects without the snapshot hook).
func BenchmarkSampleThroughputReplay(b *testing.B) {
	benchSampleThroughput(b, sampleChecker(slx.WithReplayExecution()))
}

func benchSampleThroughput(b *testing.B, c *slx.Checker) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := c.Explore(linProp())
		if err != nil {
			b.Fatal(err)
		}
		if !rep.OK() {
			b.Fatalf("violation: %s", rep.Failures()[0])
		}
		if i == 0 {
			b.ReportMetric(float64(rep.Schedules), "schedules")
			b.ReportMetric(float64(rep.DistinctStates), "distinctStates")
		}
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N*sampleSchedules)/sec, "schedules/sec")
	}
}

// sampleTMSchedules is BenchmarkSampleTM's per-Explore schedule budget.
const sampleTMSchedules = 240

// BenchmarkSampleTM measures sampling on a TM target, where the property
// monitor, not the object, sets the pace. It is the shape of slxbench
// sample-pct's i12 clean job: the registered i12 target (I_12 over a
// hardware snapshot, two processes looping a single-write transaction
// on x) judged against property S, sampled with PCT under a fixed
// master seed; every schedule forks the property-S monitor at the root
// and steps it through 16 events. Its figures are BENCH_explore.json's
// "sample_tm" section.
func BenchmarkSampleTM(b *testing.B) {
	t, ok := service.LookupTarget("i12")
	if !ok {
		b.Fatal("no i12 target")
	}
	c := slx.New(append(t.Options(), slx.WithDepth(16), slx.WithSample(sampleTMSchedules, 2), slx.WithSeed(7))...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := c.Explore(t.Property())
		if err != nil {
			b.Fatal(err)
		}
		if !rep.OK() {
			b.Fatalf("violation: %s", rep.Failures()[0])
		}
		if i == 0 {
			b.ReportMetric(float64(rep.Schedules), "schedules")
			b.ReportMetric(float64(rep.DistinctStates), "distinctStates")
		}
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N*sampleTMSchedules)/sec, "schedules/sec")
	}
}
