package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// ceilingBaseline is a monitor section with an allocation ceiling.
const ceilingBaseline = `{
  "note": "metadata strings are not sections",
  "monitor": {
    "ns_per_op": 1910210,
    "prefixes": 2941,
    "event_scans": 2940,
    "allocs_per_op": 4165,
    "bytes_per_op": 600088,
    "allocs_gate": 15680
  }
}`

// runGate parses one monitor bench line and gates it against
// ceilingBaseline with the default flags, returning the report and its
// printed lines.
func runGate(t *testing.T, line string) (*report, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, []byte(ceilingBaseline), 0o644); err != nil {
		t.Fatal(err)
	}
	baseline, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	measured, err := parseBench(strings.NewReader(line + "\n"))
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

// TestAllocsCeilingGates: a run over the allocation ceiling fails, while
// its wall clock, however slow, gates nothing.
func TestAllocsCeilingGates(t *testing.T) {
	slow := "BenchmarkExploreLinearizabilityMonitor-2   5   48000000 ns/op   2940 eventScans   2941 prefixes   4165 allocs/op   600088 B/op"
	rep, out := runGate(t, slow)
	if !rep.Pass {
		t.Fatalf("a slow run under every gate must pass:\n%s", out)
	}

	heavy := "BenchmarkExploreLinearizabilityMonitor-2   5   1900000 ns/op   2940 eventScans   2941 prefixes   16000 allocs/op   600088 B/op"
	rep, out = runGate(t, heavy)
	if rep.Pass {
		t.Fatalf("a run over the allocation ceiling must fail:\n%s", out)
	}
	if l := metricLine(out, "allocs_per_op_ceiling"); !strings.Contains(l, "REGRESSION") {
		t.Fatalf("allocation ceiling breach not reported as a regression: %q", l)
	}
}
