package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/slx"
)

// benchmarkJSON is the part of ../BENCHMARK.json the command must match.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestMetricsMatchBenchmarkJSON runs every workload briefly, untraced and
// traced, and checks that the result line carries exactly the metrics
// BENCHMARK.json declares for the mode, with their units, and that every
// verdict checked out.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(workloads, " ") {
		t.Errorf("BENCHMARK.json workloads %v, command workloads %v", names, workloads)
	}
	for _, wl := range workloads {
		for trace, want := range [][]struct{ Name, Unit string }{b.EndToEnd, b.PerLayer} {
			var out, errs bytes.Buffer
			args := []string{"--workload", wl, "--seed", "3", "--seconds", "0.05", "--trace", []string{"0", "1"}[trace]}
			if code := bench(args, &out, &errs); code != 0 {
				t.Fatalf("%v: exit %d: %s %s", args, code, out.String(), errs.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct bool `json:"correct"`
				Metrics map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || !res.Correct {
				t.Fatalf("%v: result line %q (%v)", args, lines[len(lines)-1], err)
			}
			var got, exp []string
			for n, m := range res.Metrics {
				got = append(got, n+" "+m.Unit)
			}
			for _, m := range want {
				exp = append(exp, m.Name+" "+m.Unit)
			}
			sort.Strings(got)
			sort.Strings(exp)
			if strings.Join(got, ",") != strings.Join(exp, ",") {
				t.Errorf("%v: metrics\n got  %v\n want %v", args, got, exp)
			}
		}
	}
}

// TestBreakdownDetectsOverlap: parts measured on their own that add up to
// more than a job's Explore span push the breakdown ratio out of bounds.
func TestBreakdownDetectsOverlap(t *testing.T) {
	specs := []service.JobSpec{{Target: "consensus", Spec: slx.Spec{Depth: 6}}}
	e := execution{verdict: time.Millisecond, layers: layerTotals{monitor: int64(time.Millisecond)}}
	walk := []dfsStats{{unreduced: true, key: jobKey(specs[0]), simSelfMs: 0.5}}
	_, fits := localLayers(specs, []execution{e}, time.Millisecond, &tracer{}, nil)
	_, over := localLayers(specs, []execution{e}, time.Millisecond, &tracer{}, walk)
	if checkBreakdown(fits) != nil || checkBreakdown(over) == nil {
		t.Errorf("breakdown %.3f with parts that fit the span, %.3f with parts that exceed it", fits, over)
	}
}
