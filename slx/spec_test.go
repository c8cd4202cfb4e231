package slx

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/slx/consensus"
	"repro/slx/hist"
	"repro/slx/run"
)

// testTargetOptions is a minimal valid explore target for the internal
// tests (the check package cannot be imported here — it imports slx).
func testTargetOptions() []Option {
	return []Option{
		WithProcs(2),
		WithObject(func() run.Object { return consensus.NewCommitAdoptOF(2) }),
		WithEnv(func() run.Environment {
			return consensus.ProposeOnce(map[int]hist.Value{1: 0, 2: 1})
		}),
	}
}

// testProperty is a trivially-holding safety property.
func testProperty() Property {
	return SafetyFunc("always", func(hist.History) bool { return true })
}

// TestSpecOptionsMapping: every Spec field maps onto exactly the one
// Checker field its option sets, and a zero Spec maps onto no options
// at all (Checker defaults untouched).
func TestSpecOptionsMapping(t *testing.T) {
	if n := len(Spec{}.Options()); n != 0 {
		t.Fatalf("zero spec produced %d options, want 0", n)
	}
	full := Spec{
		Procs: 3, Depth: 9, Crashes: 1, Recoveries: 1, Workers: 4,
		POR: true, Cache: true, Replay: true,
		Sample: true, Schedules: 500, D: 2, Walk: true,
		Seed: 42, TimeoutMs: 1500,
	}
	c := New(full.Options()...)
	checks := []struct {
		name string
		got  any
		want any
	}{
		{"procs", c.procs, 3},
		{"depth", c.depth, 9},
		{"crashes", c.crashes, 1},
		{"recoveries", c.recoveries, 1},
		{"workers", c.workers, 4},
		{"por", c.por, true},
		{"cache", c.cache, true},
		{"replay", c.replay, true},
		{"sample", c.sample, true},
		{"schedules", c.schedules, 500},
		{"d", c.sampleD, 2},
		{"walk", c.walk, true},
		{"seed", c.seed, int64(42)},
		{"timeout", c.timeout, 1500 * time.Millisecond},
	}
	for _, ch := range checks {
		if ch.got != ch.want {
			t.Errorf("%s: checker has %v, spec said %v", ch.name, ch.got, ch.want)
		}
	}

	// Per-field isolation: setting one field leaves every other Checker
	// knob at its default, so no spec field can leak into two options.
	defaults := New()
	fields := map[string]Spec{
		"procs":      {Procs: 5},
		"depth":      {Depth: 11},
		"crashes":    {Crashes: 2},
		"recoveries": {Recoveries: 2},
		"workers":    {Workers: 8},
		"seed":       {Seed: 7},
		"timeout":    {TimeoutMs: 250},
	}
	for name, spec := range fields {
		c := New(spec.Options()...)
		touched := 0
		if c.procs != defaults.procs {
			touched++
		}
		if c.depth != defaults.depth {
			touched++
		}
		if c.crashes != defaults.crashes {
			touched++
		}
		if c.recoveries != defaults.recoveries {
			touched++
		}
		if c.workers != defaults.workers {
			touched++
		}
		if c.seed != defaults.seed {
			touched++
		}
		if c.timeout != defaults.timeout {
			touched++
		}
		if touched != 1 {
			t.Errorf("spec field %s touched %d checker fields, want exactly 1", name, touched)
		}
	}
}

// TestSpecJSONRoundTrip: a Spec survives JSON encode/decode unchanged,
// and its zero fields stay out of the wire form.
func TestSpecJSONRoundTrip(t *testing.T) {
	orig := Spec{Depth: 24, Sample: true, Schedules: 2000, D: 3, Seed: 1, Workers: 4}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Fatalf("round trip changed the spec: %+v -> %s -> %+v", orig, data, back)
	}
	for _, absent := range []string{"procs", "crashes", "recoveries", "por", "cache", "replay", "walk", "timeout_ms"} {
		if jsonHasKey(t, data, absent) {
			t.Errorf("zero field %q serialized: %s", absent, data)
		}
	}
	if len(Spec{}.Options()) != 0 {
		t.Error("decoded zero spec should map to no options")
	}
}

// TestSpecNegativeWorkersRejected: a negative workers, depth, crashes,
// recoveries, procs or timeout_ms value, and in sampling mode a d,
// crashes or recoveries budget above the depth, survives the JSON round
// trip, is applied by Options (not silently skipped), and is rejected by
// ValidateExplore with a message naming only that field — the full path
// a bad service spec takes to its 400.
func TestSpecNegativeWorkersRejected(t *testing.T) {
	fields := []string{"workers", "depth", "crashes", "recoveries", "procs", "timeout"}
	for _, tc := range []struct {
		field   string
		spec    Spec
		value   string // the rejected value as the message prints it ("" if it does not)
		options int    // the options the spec maps to
	}{
		{"workers", Spec{Workers: -2}, "-2", 1},
		{"depth", Spec{Depth: -3}, "-3", 1},
		{"crashes", Spec{Crashes: -1}, "-1", 1},
		{"recoveries", Spec{Recoveries: -1}, "-1", 1},
		{"procs", Spec{Procs: -1}, "", 1},
		{"timeout", Spec{TimeoutMs: -5}, "-5ms", 1},
		// Sampling draws every change, crash and recovery point from
		// the steps of a schedule; a larger budget is of no use, and an
		// admitted d of 2⁶² would panic sizing the strategy's tables.
		{"d", Spec{Sample: true, Schedules: 1, D: 1 << 62, Depth: 4}, "4611686018427387904", 2},
		{"crashes", Spec{Sample: true, Schedules: 1, Crashes: 9}, "9", 2},
		{"recoveries", Spec{Sample: true, Schedules: 1, Crashes: 1, Recoveries: 9}, "9", 3},
	} {
		name := tc.field
		if tc.spec.Sample {
			name = "sample-" + tc.field
		}
		t.Run(name, func(t *testing.T) {
			data, err := json.Marshal(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			var back Spec
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			if back != tc.spec {
				t.Fatalf("spec did not survive the round trip: %+v", back)
			}
			if n := len(back.Options()); n != tc.options {
				t.Fatalf("%s spec produced %d options, want %d (it must reach validation)", name, n, tc.options)
			}
			c := New(append(testTargetOptions(), back.Options()...)...)
			verr := c.ValidateExplore(testProperty())
			if verr == nil {
				t.Fatalf("ValidateExplore accepted %+v", tc.spec)
			}
			msg := strings.ToLower(verr.Error())
			for _, f := range fields {
				if strings.Contains(msg, f) != (f == tc.field) {
					t.Fatalf("message does not isolate the %s field: %q", tc.field, verr)
				}
			}
			if tc.spec.Sample && !strings.HasPrefix(verr.Error(), "slx: "+tc.field+": ") {
				t.Fatalf("message does not name the %s field: %q", tc.field, verr)
			}
			if !strings.Contains(verr.Error(), tc.value) {
				t.Fatalf("message does not show the rejected value %s: %q", tc.value, verr)
			}
			if _, eerr := c.Explore(testProperty()); eerr == nil || eerr.Error() != verr.Error() {
				t.Fatalf("Explore said %q, ValidateExplore said %q", eerr, verr)
			}
		})
	}
}

func jsonHasKey(t *testing.T, data []byte, key string) bool {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	_, ok := m[key]
	return ok
}

// TestValidateExploreMatchesExplore: ValidateExplore accepts exactly
// what Explore would start, and rejects with the message Explore itself
// returns — the contract that lets the service 400 with in-process
// error text.
func TestValidateExploreMatchesExplore(t *testing.T) {
	base := func(extra ...Option) *Checker {
		return New(append(testTargetOptions(), extra...)...)
	}
	bad := map[string]*Checker{
		"sample+por":       base(WithSample(10, 2), WithPOR()),
		"sample+cache":     base(WithSample(10, 2), WithStateCache()),
		"no-schedules":     base(WithSample(0, 2)),
		"tier-sans-cache":  base(WithVisitedTier(NewVisitedTier())),
		"negative-workers": base(WithWorkers(-3)),
		"zero-workers":     base(WithWorkers(0)),
	}
	for name, c := range bad {
		verr := c.ValidateExplore(testProperty())
		if verr == nil {
			t.Errorf("%s: ValidateExplore accepted an invalid config", name)
			continue
		}
		_, eerr := c.Explore(testProperty())
		if eerr == nil || eerr.Error() != verr.Error() {
			t.Errorf("%s: Explore said %q, ValidateExplore said %q", name, eerr, verr)
		}
	}
	good := base(WithDepth(4))
	if err := good.ValidateExplore(testProperty()); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if _, err := good.Explore(testProperty()); err != nil {
		t.Errorf("valid config failed to explore: %v", err)
	}
}

// TestReportDepth: Report.Depth records the schedule bound the
// exploration used — the checker default for a zero Spec depth, the
// spec's otherwise — in both exploration modes.
func TestReportDepth(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		want int
	}{
		{Spec{}, 8},
		{Spec{Depth: 5}, 5},
		{Spec{Sample: true, Schedules: 10, D: 1}, 8},
		{Spec{Sample: true, Schedules: 10, D: 1, Depth: 6}, 6},
	} {
		rep, err := New(append(testTargetOptions(), tc.spec.Options()...)...).Explore(testProperty())
		if err != nil {
			t.Fatalf("%+v: %v", tc.spec, err)
		}
		if rep.Depth != tc.want {
			t.Errorf("%+v: Report.Depth = %d, want %d", tc.spec, rep.Depth, tc.want)
		}
	}
}
