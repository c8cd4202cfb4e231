package slx_test

// Public-API coverage of sampling mode (WithSample): fixed-seed
// determinism across worker counts, seeded-bug fixtures found within a
// fixed budget with witnesses that replay to the same verdict, and the
// soundness cross-check that sampling never reports a violation
// exhaustive exploration does not.

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/slx"
	"repro/slx/run"
)

// sampleBudget is the fixed schedule budget every seeded-bug fixture
// must be found within.
const sampleBudget = 2000

// seededBugCases are the violating fixtures of the POR cross-check,
// re-used as sampling targets.
func seededBugCases() map[string]struct {
	opts  []slx.Option
	props []slx.Property
} {
	all := porCases()
	return map[string]struct {
		opts  []slx.Option
		props []slx.Property
	}{
		"lossy-register/violation": all["lossy-register/violation"],
		"racy-lock/violation":      all["racy-lock/violation"],
	}
}

// TestSampleFindsSeededBugs: PCT finds each seeded-bug fixture within
// the fixed budget, records a replayable FailingSeed, and the witness
// replays to the identical failing verdict.
func TestSampleFindsSeededBugs(t *testing.T) {
	for name, tc := range seededBugCases() {
		tc := tc
		t.Run(name, func(t *testing.T) {
			prop := tc.props[0]
			rep, err := slx.New(append(tc.opts[:len(tc.opts):len(tc.opts)],
				slx.WithSample(sampleBudget, 3), slx.WithSeed(1))...).Explore(prop)
			if err != nil {
				t.Fatalf("sample explore: %v", err)
			}
			if rep.OK() {
				t.Fatalf("PCT must find the seeded bug within %d schedules:\n%s", sampleBudget, rep)
			}
			if !rep.Sampled || rep.Schedules < 1 || rep.FailingSeed == 0 {
				t.Fatalf("sampling metadata missing: %+v", rep)
			}
			if rep.Witness() == nil || rep.Execution == nil {
				t.Fatal("sampled violation must carry a witness and execution")
			}

			// The witness replays to the same failing property.
			replay, err := slx.New(tc.opts...).Replay(rep.Witness(), prop)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if replay.OK() {
				t.Fatalf("witness %v replayed clean", rep.Witness())
			}
			if rf, sf := replay.Failures()[0].Property, rep.Failures()[0].Property; rf != sf {
				t.Fatalf("replay failed %q, sampling failed %q", rf, sf)
			}

			// The failing seed re-derives the same witness as schedule 0.
			re, err := slx.New(append(tc.opts[:len(tc.opts):len(tc.opts)],
				slx.WithSample(1, 3), slx.WithSeed(rep.FailingSeed))...).Explore(prop)
			if err != nil {
				t.Fatalf("reproduce explore: %v", err)
			}
			if re.OK() || !reflect.DeepEqual(re.Witness(), rep.Witness()) {
				t.Fatalf("FailingSeed did not reproduce the witness:\nwant %v\ngot ok=%v %v", rep.Witness(), re.OK(), re.Witness())
			}
			t.Logf("%s: found at schedule %d (seed %d), witness %v", name, rep.Schedules-1, rep.FailingSeed, rep.Witness())
		})
	}
}

// TestSampleDeterministicAcrossWorkers: under a fixed master seed the
// sampled Report — schedules, coverage, steps, event scans, verdicts,
// witness, failing seed — is identical at 1 and 4 workers. Run under
// -race in CI.
func TestSampleDeterministicAcrossWorkers(t *testing.T) {
	cases := porCases()
	for _, name := range []string{"register/linearizability", "lossy-register/violation", "racy-lock/violation", "commit-adopt/crashes+workers"} {
		tc := cases[name]
		t.Run(name, func(t *testing.T) {
			runAt := func(workers int) *slx.Report {
				rep, err := slx.New(append(tc.opts[:len(tc.opts):len(tc.opts)],
					slx.WithSample(500, 3), slx.WithSeed(42), slx.WithWorkers(workers))...).Explore(tc.props...)
				if err != nil {
					t.Fatalf("sample explore (%d workers): %v", workers, err)
				}
				return rep
			}
			one, four := runAt(1), runAt(4)
			if one.Workers != 1 || four.Workers < 1 {
				t.Fatalf("worker accounting wrong: %d / %d", one.Workers, four.Workers)
			}
			type core struct {
				Schedules, DistinctStates, SimSteps, Resims, EventScans int
				FailingSeed                                             int64
				OK                                                      bool
				Witness                                                 []run.Decision
			}
			c1 := core{one.Schedules, one.DistinctStates, one.SimSteps, one.Resims, one.EventScans, one.FailingSeed, one.OK(), one.Witness()}
			c4 := core{four.Schedules, four.DistinctStates, four.SimSteps, four.Resims, four.EventScans, four.FailingSeed, four.OK(), four.Witness()}
			if !reflect.DeepEqual(c1, c4) {
				t.Fatalf("report depends on worker count:\n1: %+v\n4: %+v", c1, c4)
			}
		})
	}
}

// TestSampleReplayParity: sampling draws the identical schedules on
// both session strategies, so every example object's frames are checked
// against its blocking Apply (WithReplayExecution) on deep PCT
// schedules, recovery cases included: identical verdicts, schedule and
// distinct-state counts, event scans, failing seeds and witnesses.
func TestSampleReplayParity(t *testing.T) {
	for _, cases := range []map[string]struct {
		opts  []slx.Option
		props []slx.Property
	}{porCases(), recoveryCases()} {
		for name, tc := range cases {
			tc := tc
			t.Run(name, func(t *testing.T) {
				base := append(tc.opts[:len(tc.opts):len(tc.opts)], slx.WithDepth(24), slx.WithSample(200, 3), slx.WithSeed(1))
				base = base[:len(base):len(base)]
				type core struct {
					Schedules, DistinctStates, EventScans int
					FailingSeed                           int64
					OK                                    bool
					Witness                               []run.Decision
				}
				var got [2]core
				for i, opts := range [][]slx.Option{base, append(base, slx.WithReplayExecution())} {
					rep, err := slx.New(opts...).Explore(tc.props...)
					if err != nil {
						t.Fatalf("sample explore: %v", err)
					}
					got[i] = core{rep.Schedules, rep.DistinctStates, rep.EventScans, rep.FailingSeed, rep.OK(), rep.Witness()}
				}
				if !reflect.DeepEqual(got[0], got[1]) {
					t.Fatalf("strategies diverge:\nsnapshot:  %+v\nfrom root: %+v", got[0], got[1])
				}
			})
		}
	}
}

// TestSampleSoundOnSmallDepth: on every small-depth example, a sampled
// violation implies an exhaustive violation at the same depth and crash
// budget (sampling draws schedules from the same tree, so it can never
// report a violation exhaustive Explore does not).
func TestSampleSoundOnSmallDepth(t *testing.T) {
	for name, tc := range porCases() {
		tc := tc
		t.Run(name, func(t *testing.T) {
			full, err := slx.New(tc.opts...).Explore(tc.props...)
			if err != nil {
				t.Fatalf("exhaustive explore: %v", err)
			}
			sampled, err := slx.New(append(tc.opts[:len(tc.opts):len(tc.opts)],
				slx.WithSample(400, 2), slx.WithSeed(3))...).Explore(tc.props...)
			if err != nil {
				t.Fatalf("sample explore: %v", err)
			}
			if !sampled.OK() && full.OK() {
				t.Fatalf("sampling reported a violation exhaustive exploration does not:\n%s", sampled)
			}
			if !sampled.OK() {
				fv, sv := full.Failures()[0], sampled.Failures()[0]
				if fv.Property != sv.Property {
					t.Errorf("different properties failed: exhaustive %q, sampled %q", fv.Property, sv.Property)
				}
			}
			t.Logf("exhaustive ok=%v, sampled ok=%v (%d schedules, %d distinct states)",
				full.OK(), sampled.OK(), sampled.Schedules, sampled.DistinctStates)
		})
	}
}

// TestSampleInterruptible: cancellation mid-sampling returns the
// partial Report together with the context error.
func TestSampleInterruptible(t *testing.T) {
	tc := porCases()["register/linearizability"]
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	rep, err := slx.New(append(tc.opts[:len(tc.opts):len(tc.opts)],
		slx.WithSample(10_000_000, 3), slx.WithWorkers(2), slx.WithContext(ctx))...).Explore(tc.props...)
	if err != context.DeadlineExceeded {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if rep == nil || !rep.Interrupted || !rep.Sampled {
		t.Fatalf("want partial interrupted report, got %+v", rep)
	}
	if rep.Schedules >= 10_000_000 || len(rep.Verdicts) != 0 {
		t.Fatalf("interrupted report must carry partial stats and no verdicts: %+v", rep)
	}
	t.Logf("interrupted after %d schedules, %d distinct states", rep.Schedules, rep.DistinctStates)
}

// TestSampleOptionValidation: sampling excludes the enumeration-only
// options and rejects empty or negative budgets.
func TestSampleOptionValidation(t *testing.T) {
	tc := porCases()["register/linearizability"]
	base := tc.opts[:len(tc.opts):len(tc.opts)]
	for name, bad := range map[string][]slx.Option{
		"por":       append(base, slx.WithSample(10, 2), slx.WithPOR()),
		"cache":     append(base, slx.WithSample(10, 2), slx.WithStateCache()),
		"schedules": append(base, slx.WithSample(0, 2)),
		"negative":  append(base, slx.WithSample(10, -1)),
	} {
		if _, err := slx.New(bad...).Explore(tc.props...); err == nil {
			t.Errorf("%s: invalid sampling configuration accepted", name)
		}
	}
}

// TestSampleWalkMode: the uniform random walk also finds a seeded bug
// and reports coverage.
func TestSampleWalkMode(t *testing.T) {
	tc := porCases()["lossy-register/violation"]
	rep, err := slx.New(append(tc.opts[:len(tc.opts):len(tc.opts)],
		slx.WithSample(sampleBudget, 0), slx.WithSampleWalk(), slx.WithSeed(1))...).Explore(tc.props...)
	if err != nil {
		t.Fatalf("walk explore: %v", err)
	}
	if rep.OK() {
		t.Fatalf("walk must find the lossy-register bug within %d schedules", sampleBudget)
	}
	if rep.FailingSeed == 0 || rep.Witness() == nil {
		t.Fatalf("walk violation metadata missing: %+v", rep)
	}
}
