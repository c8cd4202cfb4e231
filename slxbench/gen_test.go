package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/service"
)

// kind names a job's kind: its target family, its mode and whether it
// must find a bug.
func kind(s service.JobSpec) string {
	fam := family(s)
	if s.Sample {
		fam += "/sample"
	}
	if !expectOK(s) {
		fam += "/bug"
	}
	return fam
}

func encode(t *testing.T, specs []service.JobSpec) []byte {
	t.Helper()
	b, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGenerateDeterministic: the same seed gives a byte-identical encoded
// job list, different seeds give different lists, and every family of a
// workload appears under every seed.
func TestGenerateDeterministic(t *testing.T) {
	for _, wl := range workloads {
		base, err := generate(wl, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]bool{}
		for _, s := range base {
			want[kind(s)] = true
		}
		for seed := int64(1); seed <= 5; seed++ {
			a, _ := generate(wl, seed)
			b, _ := generate(wl, seed)
			if !bytes.Equal(encode(t, a), encode(t, b)) {
				t.Errorf("%s seed %d: two draws differ", wl, seed)
			}
			if seed > 1 && bytes.Equal(encode(t, a), encode(t, base)) {
				t.Errorf("%s: seeds 1 and %d draw the same list", wl, seed)
			}
			got := map[string]bool{}
			for _, s := range a {
				got[kind(s)] = true
			}
			for f := range want {
				if !got[f] {
					t.Errorf("%s seed %d: job kind %s missing", wl, seed, f)
				}
			}
			// The warm-up jobs lead the list, in the same families under
			// every seed.
			for k, i := range warmUpJobs(a) {
				if i != k || family(a[i]) != family(base[k]) {
					t.Errorf("%s seed %d: warm-up job %d is job %d (%s), want job %d (%s)", wl, seed, k, i, a[i].Target, k, base[k].Target)
				}
			}
		}
	}
}

// TestJobSpecsAreTheOnlyInput: a job list survives a JSON round trip
// unchanged, and every decoded spec builds a valid checker, so the
// program under test needs nothing but the encoded specs.
func TestJobSpecsAreTheOnlyInput(t *testing.T) {
	for _, wl := range workloads {
		specs, err := generate(wl, 7)
		if err != nil {
			t.Fatal(err)
		}
		var decoded []service.JobSpec
		if err := json.Unmarshal(encode(t, specs), &decoded); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encode(t, decoded), encode(t, specs)) {
			t.Fatalf("%s: JSON round trip changed the job list", wl)
		}
		for _, s := range decoded {
			c, prop, err := checkerFor(s)
			if err != nil {
				t.Fatalf("%s: %v", s.Target, err)
			}
			if err := c.ValidateExplore(prop); err != nil {
				t.Fatalf("%s: %v", s.Target, err)
			}
		}
	}
}

// TestSeedIsAnArgument runs the command on two seeds and checks the
// seed reaches the recorded host line and changes the job list measured.
func TestSeedIsAnArgument(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	var out, errs bytes.Buffer
	if code := bench([]string{"--workload", wlSlxdOpen, "--seed", "42", "--seconds", "0.1", "--trace", "0"}, &out, &errs); code != 0 {
		t.Fatalf("exit %d: %s %s", code, out.String(), errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var host map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &host); err != nil || host["seed"] != float64(42) {
		t.Fatalf("host line %q does not record seed 42", lines[0])
	}
	var res struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || !res.Correct || res.Attempted < 1 {
		t.Fatalf("result line %q", lines[len(lines)-1])
	}
}
