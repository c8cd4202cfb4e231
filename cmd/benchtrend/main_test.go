package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// monitorBaseline is a monitor section and a service section, which
// loadBaseline finds through its ns_per_op alone.
const monitorBaseline = `{
  "note": "metadata strings are not sections",
  "monitor": {
    "ns_per_op": 1910210,
    "prefixes": 2941,
    "event_scans": 2940,
    "allocs_per_op": 4165,
    "bytes_per_op": 600088
  },
  "service": {
    "ns_per_op": 990502,
    "allocs_per_op": 663,
    "bytes_per_op": 55688,
    "alloc_gate_ratio": 1.5
  }
}`

// runGate parses bench lines and gates them against monitorBaseline
// with the default flags, returning the report and its printed lines.
func runGate(t *testing.T, lines string) (*report, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, []byte(monitorBaseline), 0o644); err != nil {
		t.Fatal(err)
	}
	baseline, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	measured, err := parseBench(strings.NewReader(lines + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	rep := gate(measured, baseline, 2.0, 1.25, 2.0)
	var out bytes.Buffer
	rep.print(&out)
	return rep, out.String()
}

// metricLine returns the printed line of one metric.
func metricLine(out, metric string) string {
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, " "+metric+" ") {
			return l
		}
	}
	return ""
}

// TestGatesIgnoreWallClock: a run under the allocation ratio gate
// passes however slow it is, its service jobs/sec included, and one
// past that gate fails.
func TestGatesIgnoreWallClock(t *testing.T) {
	slow := "BenchmarkExploreLinearizabilityMonitor-2   5   48000000 ns/op   2940 eventScans   2941 prefixes   4165 allocs/op   600088 B/op\n" +
		"BenchmarkServiceThroughput-2   2   9000000 ns/op   111.1 jobs/sec   663 allocs/op   55688 B/op"
	rep, out := runGate(t, slow)
	if !rep.Pass {
		t.Fatalf("a slow run under every gate must pass:\n%s", out)
	}

	heavy := "BenchmarkExploreLinearizabilityMonitor-2   5   1900000 ns/op   2940 eventScans   2941 prefixes   5300 allocs/op   600088 B/op"
	rep, out = runGate(t, heavy)
	if rep.Pass {
		t.Fatalf("a run past the 1.25x allocation gate must fail:\n%s", out)
	}
	if l := metricLine(out, "allocs_per_op"); !strings.Contains(l, "REGRESSION") {
		t.Fatalf("allocation gate breach not reported as a regression: %q", l)
	}
}
