// Command slxbench is the repository benchmark. It generates one
// workload's job list from a seed, makes whole passes over it for a fixed
// time, checks every verdict, and prints the end-to-end metrics — or,
// with -trace 1, the per-layer metrics of a traced run. The last line of
// its output is one JSON object: correct, attempted, failed, metrics.
//
// Run it through run.sh from the repository root, which builds it:
//
//	bash slxbench/run.sh --workload dfs-plain --seed 1 --seconds 25 --trace 0
//
// See README.md beside this file for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is a run's outcome.
type result struct {
	attempted int
	failures  []string
	metrics   []metric
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 15

func main() { os.Exit(bench(os.Args[1:], os.Stdout, os.Stderr)) }

// bench runs the benchmark and returns the exit code.
func bench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slxbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 25, "measured time")
	trace := fs.Int("trace", 0, "1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "slxbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	host, _ := json.Marshal(hostInfo(*workload, *seed, *trace == 1))
	fmt.Fprintf(stdout, "%s\n", host)
	d := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *workload == wlSlxdOpen {
		res, err = runSlxd(*seed, d, *trace == 1)
	} else {
		res, err = runLocal(*workload, *seed, d, *trace == 1)
	}
	if err != nil {
		fmt.Fprintf(stderr, "slxbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%d jobs attempted\n", res.attempted)
	for _, m := range res.metrics {
		fmt.Fprintf(stdout, "%-28s %16.6f %s\n", m.name, m.value, m.unit)
	}
	for i, f := range res.failures {
		if i == 10 {
			fmt.Fprintf(stdout, "... %d more failures\n", len(res.failures)-i)
			break
		}
		fmt.Fprintf(stdout, "FAIL %s\n", f)
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{len(res.failures) == 0, res.attempted, len(res.failures), map[string]map[string]any{}}
	for _, m := range res.metrics {
		out.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "slxbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}

// hostInfo records where and how a run was made.
func hostInfo(workload string, seed int64, trace bool) map[string]any {
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"trace":      trace,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// timedSetup runs setup setupRepeats times, keeps the last one, and
// returns its median duration. close releases a discarded setup. Each
// set-up starts from a collected heap, so none pays for collecting the
// garbage its predecessor left.
func timedSetup[T any](setup func() (T, error), close func(T)) (T, float64, error) {
	var keep T
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			if i > 0 {
				close(keep)
			}
			return v, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i > 0 {
			close(keep)
		}
		keep = v
	}
	return keep, quantile(secs, 0.5), nil
}

// window measures one timed window from a collected heap: the runtime
// counters around f and the peak live heap. A workload whose heap only
// grows (slxd keeps every job it ran) peaks at the end, so with growing
// the peak is the live heap a collection finds right after f; sampling
// would instead catch the store at whatever size the collector's pacing
// happened to read it. Otherwise the peak is a sampler's (see heapPeak).
func window(f func() int, growing bool) (jobs int, peakBytes float64, gc gcDelta) {
	runtime.GC()
	g0 := readGC()
	if growing {
		jobs = f()
		gc = readGC().since(g0)
		// The second collection empties the pools' victim caches, which
		// the first only moves pooled objects into.
		runtime.GC()
		runtime.GC()
		return jobs, liveHeap(), gc
	}
	hp := startHeapPeak()
	jobs = f()
	peakBytes = hp.stop()
	return jobs, peakBytes, readGC().since(g0)
}

func resourceMetrics(setup float64, jobs int, peak float64, gc gcDelta) []metric {
	return []metric{
		{"alloc_kb_per_job", ratio(gc.allocBytes/1024, float64(jobs)), "KiB"},
		{"peak_heap_mb", peak / (1 << 20), "MiB"},
		{"setup_s", setup, "s"},
	}
}

func gcMetrics(jobs int, gc gcDelta) []metric {
	return []metric{
		{"gc.cycles_per_job", ratio(gc.cycles, float64(jobs)), "count"},
		{"gc.cpu_frac", gc.cpuFrac, "ratio"},
		{"gc.alloc_objects_per_job", ratio(gc.allocObjects, float64(jobs)), "count"},
	}
}

func traceMetrics(breakdown, tracedP50, untracedP50 float64) []metric {
	return []metric{
		{"trace.breakdown_ratio", breakdown, "ratio"},
		{"trace.overhead_ratio", ratio(tracedP50, untracedP50), "ratio"},
		{"trace.verdict_ms_p50", tracedP50, "ms"},
	}
}

// tailMetrics are the latency tails BENCHMARK.json lists per layer, not
// end to end. On slxd-open both sit where a ~1 ms body (the runtime's
// timer granularity, the poll cadence) meets a tail of stalls — a
// collection, or two busy pool workers holding both Ps until Go's 10 ms
// preemption — that lands on about 1% of jobs, so from run to run they
// move by more than any bound a regression gate could use. Traced runs
// report them from the untraced half.
var tailMetrics = map[string]bool{"verdict_ms_p99": true, "gen_lag_ms_p99": true}

// splitTails separates the tail metrics from the end-to-end ones.
func splitTails(ms []metric) (e2e, tails []metric) {
	for _, m := range ms {
		if tailMetrics[m.name] {
			tails = append(tails, m)
		} else {
			e2e = append(e2e, m)
		}
	}
	return e2e, tails
}

// checkBreakdown fails a traced run whose layer breakdown does not sum to
// its traced time within 10%.
func checkBreakdown(ratio float64) []string {
	if ratio < 0.9 || ratio > 1.1 {
		return []string{fmt.Sprintf("the layer breakdown sums to %.3f of the traced time, not within 10%%", ratio)}
	}
	return nil
}

// p50 finds verdict_ms_p50 among end-to-end metrics.
func p50(ms []metric) float64 {
	for _, m := range ms {
		if m.name == "verdict_ms_p50" {
			return m.value
		}
	}
	return 0
}

// runLocal runs an in-process workload. A traced run spends half its
// time untraced and half traced, and reports the per-layer metrics.
func runLocal(workload string, seed int64, d time.Duration, trace bool) (result, error) {
	r, setup, err := timedSetup(func() (*localRun, error) { return setupLocal(workload, seed) }, func(*localRun) {})
	if err != nil {
		return result{}, err
	}
	if trace {
		d /= 2
	}
	var m measured
	jobs, peak, gc := window(func() int {
		m = r.measure(d, nil)
		return m.attempted
	}, false)
	res := result{attempted: m.attempted, failures: append(m.failures, r.verify(m.witnesses)...)}
	e2e, tails := splitTails(medianMetrics(m.passes))
	e2e = append(e2e, resourceMetrics(setup, jobs, peak, gc)...)
	if !trace {
		res.metrics = e2e
		return res, nil
	}
	if err := r.markReplayJobs(); err != nil {
		return result{}, err
	}
	tr := &tracer{}
	tm := r.measure(d, tr)
	res.attempted += tm.attempted
	res.failures = append(res.failures, tm.failures...)
	dfs, err := dfsSample(r.specs)
	if err != nil {
		return result{}, err
	}
	layers, breakdown := localLayers(r.specs, tm.execs, tm.wall, tr, dfs)
	res.failures = append(res.failures, checkBreakdown(breakdown)...)
	service, _ := slxdLayers(nil, nil)
	res.metrics = append(append(append(append(layers, service...), gcMetrics(jobs, gc)...), tails...),
		traceMetrics(breakdown, p50(medianMetrics(tm.passes)), p50(e2e))...)
	return res, nil
}

// runSlxd runs the slxd-open workload. A traced run makes two halves
// as runLocal does; the client spans are recorded in both.
func runSlxd(seed int64, d time.Duration, trace bool) (result, error) {
	r, setup, err := timedSetup(func() (*slxdRun, error) { return setupSlxd(seed) },
		func(r *slxdRun) { _ = r.srv.stop() })
	if err != nil {
		return result{}, err
	}
	defer func() { _ = r.srv.stop() }()
	if trace {
		d /= 2
	}
	var recs []*slxdRecord
	var lists []time.Duration
	jobs, peak, gc := window(func() int {
		recs, lists = r.measure(d)
		return len(recs)
	}, true)
	var res result
	res.attempted = len(recs)
	check := func(recs []*slxdRecord) {
		for _, f := range r.verify(recs) {
			if f != "" {
				res.failures = append(res.failures, f)
			}
		}
	}
	check(recs)
	// The tails are over every job of the run, so that at least ten
	// samples lie beyond a p99.
	e2e, _ := splitTails(r.passMetrics(recs))
	_, tails := splitTails(slxdMetrics(r.specs, recs))
	e2e = append(e2e, resourceMetrics(setup, jobs, peak, gc)...)
	if !trace {
		res.metrics = e2e
		return res, nil
	}
	trecs, tlists := r.measure(d)
	res.attempted += len(trecs)
	check(trecs)
	engine, _ := localLayers(nil, nil, 0, &tracer{}, nil)
	service, breakdown := slxdLayers(trecs, append(lists, tlists...))
	res.failures = append(res.failures, checkBreakdown(breakdown)...)
	res.metrics = append(append(append(append(engine, service...), gcMetrics(jobs, gc)...), tails...),
		traceMetrics(breakdown, p50(r.passMetrics(trecs)), p50(e2e))...)
	return res, nil
}
