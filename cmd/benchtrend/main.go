// Command benchtrend turns `go test -bench` output into a
// machine-readable JSON report and gates it against the committed
// baseline (BENCH_explore.json). CI pipes the Explore benchmark run
// through it: the JSON is uploaded as a build artifact (the perf
// trajectory of the exploration engine, one point per commit), and the
// process exits non-zero when a tracked metric regresses.
//
// Gates, per section present in both the run and the baseline:
//
//   - the prefixes and eventScans counts must not exceed baseline×ratio
//     (these are deterministic, so growth means a reduction — monitors,
//     POR, the state cache — actually regressed);
//   - the allocation counts (allocs/op and B/op from -benchmem) must
//     not exceed baseline×-allocratio (default 1.25). Exploration is
//     deterministic at one worker, so allocation counts are effectively
//     exact — the continuation runtime's pooling made them the engine's
//     primary cost signal, and a 25%+ growth means a pool or a reuse
//     path actually regressed. Sections whose allocation counts depend
//     on scheduler timing (work stealing, the HTTP service) carry a
//     looser per-section "alloc_gate_ratio" in the baseline file, which
//     overrides the flag for that section. No absolute ceiling exists:
//     an absolute ns/op number fails on a slower host with no code
//     change, and an allocation ceiling far above the baseline catches
//     nothing the ratio gate misses;
//   - the sampling sections' schedules and distinct_states counts must
//     match the baseline exactly (they are deterministic under the
//     benchmark's fixed master seed — drift is a behavior change);
//     their schedules/sec below baseline/-samplethroughput is advisory;
//   - prefixes/sec below baseline/ratio is reported in the artifact and
//     the log but is ADVISORY only: wall-clock throughput depends on
//     the host, and a contended shared CI runner must not fail a build
//     the deterministic counters prove clean.
//
// The historical -stepratio gate ((sim_steps+resim_steps)/prefixes of
// the monitor section, the incremental engine's acceptance bar) is
// retired: the continuation runtime restores control state by struct
// copy, so the bound is exact — zero resim steps, one sim step per
// non-root prefix — and TestExploreContinuationSteps pins it directly.
//
// Usage:
//
//	go test -bench 'ExploreLinearizability|SampleThroughput' -benchmem -benchtime 1x -run '^$' . | benchtrend -baseline BENCH_explore.json -out bench-trend.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sections maps benchmark names to baseline section keys. Baseline
// sections without a live benchmark (e.g. the retired first-level-split
// scheduler, kept for the historical comparison) are simply not gated.
var sections = map[string]string{
	"BenchmarkExploreLinearizabilityMonitor":  "monitor",
	"BenchmarkExploreLinearizabilityReplay":   "replay_monitor",
	"BenchmarkExploreLinearizabilityPOR":      "por",
	"BenchmarkExploreLinearizabilityCache":    "cache",
	"BenchmarkExploreLinearizabilityCachePOR": "cache_por",
	"BenchmarkExploreLinearizabilityWorkers4": "parallel_work_stealing",
	"BenchmarkExploreRecoveryMonitor":         "recovery",
	"BenchmarkExploreRecoveryCachePOR":        "recovery_cache_por",
	"BenchmarkExploreDSTM":                    "dstm",
	"BenchmarkExploreQueueMonitor":            "queue_monitor",
	"BenchmarkExploreQueueCachePOR":           "queue_cache_por",
	"BenchmarkExploreCommitAdoptCache":        "commit_adopt_cache",
	"BenchmarkSampleThroughput":               "sample",
	"BenchmarkSampleThroughputReplay":         "sample_replay",
	"BenchmarkSampleTM":                       "sample_tm",
	"BenchmarkServiceThroughput":              "service",
}

// metrics is one section's measurements, in the baseline's JSON shape.
type metrics struct {
	NsPerOp         float64 `json:"ns_per_op"`
	Prefixes        float64 `json:"prefixes,omitempty"`
	SimSteps        float64 `json:"sim_steps,omitempty"`
	ResimSteps      float64 `json:"resim_steps,omitempty"`
	EventScans      float64 `json:"event_scans,omitempty"`
	PrefixesPerSec  float64 `json:"prefixes_per_sec,omitempty"`
	Schedules       float64 `json:"schedules,omitempty"`
	DistinctStates  float64 `json:"distinct_states,omitempty"`
	SchedulesPerSec float64 `json:"schedules_per_sec,omitempty"`
	AllocsPerOp     float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp      float64 `json:"bytes_per_op,omitempty"`
	// AllocRatio, set only in baseline sections, overrides -allocratio
	// for that section's allocation gates (work stealing and the HTTP
	// service allocate timing-dependently and need headroom).
	AllocRatio float64 `json:"alloc_gate_ratio,omitempty"`
}

// comparison is one gate evaluation. Advisory comparisons (wall-clock
// throughput) are recorded but never fail the run.
type comparison struct {
	Section  string  `json:"section"`
	Metric   string  `json:"metric"`
	Measured float64 `json:"measured"`
	Baseline float64 `json:"baseline"`
	Ratio    float64 `json:"ratio"`
	OK       bool    `json:"ok"`
	Advisory bool    `json:"advisory,omitempty"`
}

// report is the uploaded artifact.
type report struct {
	Timestamp   string              `json:"timestamp"`
	Ratio       float64             `json:"max_regression_ratio"`
	Sections    map[string]*metrics `json:"sections"`
	Comparisons []comparison        `json:"comparisons"`
	Pass        bool                `json:"pass"`
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_explore.json", "committed baseline JSON")
	outPath := flag.String("out", "bench-trend.json", "where to write the trend report")
	ratio := flag.Float64("ratio", 2.0, "maximum tolerated regression factor of the deterministic work counts")
	allocRatio := flag.Float64("allocratio", 1.25, "maximum tolerated regression factor of allocs/op and B/op (per-section alloc_gate_ratio in the baseline overrides)")
	sampleRatio := flag.Float64("samplethroughput", 2.0, "advisory tolerated slowdown factor of the sampling sections' schedules/sec")
	flag.Parse()

	measured, err := parseBench(os.Stdin)
	if err != nil {
		fatal("parse bench output: %v", err)
	}
	if len(measured) == 0 {
		fatal("no tracked benchmark lines found on stdin")
	}
	baseline, err := loadBaseline(*baselinePath)
	if err != nil {
		fatal("load baseline: %v", err)
	}

	rep := gate(measured, baseline, *ratio, *allocRatio, *sampleRatio)
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal("marshal report: %v", err)
	}
	if err := os.WriteFile(*outPath, append(buf, '\n'), 0o644); err != nil {
		fatal("write report: %v", err)
	}
	rep.print(os.Stdout)
	if !rep.Pass {
		fatal("benchmark trend regressed past a gate (see %s)", *outPath)
	}
	fmt.Printf("bench trend ok: %d sections gated against %s\n", len(measured), *baselinePath)
}

// gate evaluates every tracked metric of the measured sections against
// their baseline sections.
func gate(measured, baseline map[string]*metrics, ratio, allocRatio, sampleRatio float64) *report {
	rep := &report{
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Ratio:     ratio,
		Sections:  measured,
		Pass:      true,
	}
	for _, key := range sortedKeys(measured) {
		m := measured[key]
		b, ok := baseline[key]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchtrend: note: no baseline section %q (new benchmark?)\n", key)
			continue
		}
		rep.checkAdvisory(key, "prefixes_per_sec", m.PrefixesPerSec, b.PrefixesPerSec, m.PrefixesPerSec >= b.PrefixesPerSec/ratio)
		rep.check(key, "prefixes", m.Prefixes, b.Prefixes, m.Prefixes <= b.Prefixes*ratio)
		rep.check(key, "event_scans", m.EventScans, b.EventScans, m.EventScans <= b.EventScans*ratio)
		// Allocation gates: hard, with the baseline's per-section
		// alloc_gate_ratio taking precedence over the flag.
		ar := allocRatio
		if b.AllocRatio > 0 {
			ar = b.AllocRatio
		}
		rep.check(key, "allocs_per_op", m.AllocsPerOp, b.AllocsPerOp, m.AllocsPerOp <= b.AllocsPerOp*ar)
		rep.check(key, "bytes_per_op", m.BytesPerOp, b.BytesPerOp, m.BytesPerOp <= b.BytesPerOp*ar)
		// Sampling sections: schedules and terminal-state coverage are
		// deterministic under the benchmark's fixed seed, so any drift is a
		// behavior change, not noise; wall-clock throughput stays advisory.
		rep.checkAdvisory(key, "schedules_per_sec", m.SchedulesPerSec, b.SchedulesPerSec, m.SchedulesPerSec >= b.SchedulesPerSec/sampleRatio)
		rep.check(key, "schedules", m.Schedules, b.Schedules, m.Schedules == b.Schedules)
		rep.check(key, "distinct_states", m.DistinctStates, b.DistinctStates, m.DistinctStates == b.DistinctStates)
	}
	return rep
}

// print writes one line per comparison.
func (r *report) print(w io.Writer) {
	for _, c := range r.Comparisons {
		status := "ok"
		switch {
		case !c.OK && c.Advisory:
			status = "SLOW (advisory, host-dependent — not gating)"
		case !c.OK:
			status = "REGRESSION"
		}
		fmt.Fprintf(w, "%-22s %-16s measured %12.0f baseline %12.0f  %s\n", c.Section, c.Metric, c.Measured, c.Baseline, status)
	}
}

func (r *report) check(section, metric string, measured, baseline float64, ok bool) {
	if baseline == 0 {
		return // metric not tracked for this section
	}
	r.Comparisons = append(r.Comparisons, comparison{
		Section: section, Metric: metric, Measured: measured, Baseline: baseline, Ratio: r.Ratio, OK: ok,
	})
	if !ok {
		r.Pass = false
	}
}

// checkAdvisory records a comparison that informs but never gates.
func (r *report) checkAdvisory(section, metric string, measured, baseline float64, ok bool) {
	if baseline == 0 {
		return
	}
	r.Comparisons = append(r.Comparisons, comparison{
		Section: section, Metric: metric, Measured: measured, Baseline: baseline, Ratio: r.Ratio, OK: ok, Advisory: true,
	})
}

// parseBench extracts the per-benchmark metrics from `go test -bench`
// output lines ("BenchmarkName[-P] N ns/op k metric ...").
func parseBench(f io.Reader) (map[string]*metrics, error) {
	out := make(map[string]*metrics)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i]
		}
		key, tracked := sections[name]
		if !tracked {
			continue
		}
		m := &metrics{}
		// fields[1] is the iteration count; the rest are value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad value %q", sc.Text(), fields[i])
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsPerOp = v
			case "prefixes":
				m.Prefixes = v
			case "simSteps":
				m.SimSteps = v
			case "resimSteps":
				m.ResimSteps = v
			case "eventScans":
				m.EventScans = v
			case "prefixes/sec":
				m.PrefixesPerSec = v
			case "schedules":
				m.Schedules = v
			case "distinctStates":
				m.DistinctStates = v
			case "schedules/sec":
				m.SchedulesPerSec = v
			case "allocs/op":
				m.AllocsPerOp = v
			case "B/op":
				m.BytesPerOp = v
			}
		}
		out[key] = m
	}
	return out, sc.Err()
}

// loadBaseline reads the committed baseline's sections. The file's
// top-level keys mix metadata strings with section objects; anything
// that unmarshals into metrics counts as a section.
func loadBaseline(path string) (map[string]*metrics, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf, &raw); err != nil {
		return nil, err
	}
	out := make(map[string]*metrics)
	for key, msg := range raw {
		var m metrics
		if err := json.Unmarshal(msg, &m); err != nil {
			continue // metadata (strings, numbers), not a section
		}
		if m.NsPerOp > 0 || m.Prefixes > 0 || m.Schedules > 0 {
			out[key] = &m
		}
	}
	return out, nil
}

func sortedKeys(m map[string]*metrics) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchtrend: "+format+"\n", args...)
	os.Exit(1)
}
