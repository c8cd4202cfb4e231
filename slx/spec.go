package slx

import "time"

// Spec is the declarative, JSON-serializable form of a Checker's
// exploration configuration: the job-spec half of the slxd exploration
// service, and the round-trippable record of how a report was produced.
// Every field maps to exactly one Checker option (the Sample/Schedules/D
// triple jointly forms the one WithSample call), so a Spec plus an
// object, environment and property pins an exploration completely: the
// daemon builds its Checker through Options and a client can rebuild
// the identical in-process Checker from the same JSON. Zero values mean
// "option not applied" and leave the Checker defaults in place; invalid
// values and combinations are NOT diagnosed here — negative numbers are
// applied like any other, and everything surfaces from
// Checker.ValidateExplore (and Explore) with the usual messages, which
// is what lets a service front end reject a bad spec with exactly the
// in-process error text.
type Spec struct {
	// Procs maps to WithProcs (0: keep the default of 2).
	Procs int `json:"procs,omitempty"`
	// Depth maps to WithDepth: the exhaustive schedule-length bound, or
	// sampling's per-schedule step budget (0: keep the default of 8).
	Depth int `json:"depth,omitempty"`
	// Crashes maps to WithCrashes.
	Crashes int `json:"crashes,omitempty"`
	// Recoveries maps to WithRecoveries.
	Recoveries int `json:"recoveries,omitempty"`
	// Workers maps to WithWorkers.
	Workers int `json:"workers,omitempty"`
	// POR maps to WithPOR.
	POR bool `json:"por,omitempty"`
	// Cache maps to WithStateCache.
	Cache bool `json:"cache,omitempty"`
	// Replay maps to WithReplayExecution: sessions rebuild from the
	// root, running each object's Apply, instead of restoring
	// snapshots.
	Replay bool `json:"replay,omitempty"`
	// Sample, with Schedules and D, maps to WithSample(Schedules, D):
	// probabilistic sampling instead of exhaustive enumeration.
	Sample bool `json:"sample,omitempty"`
	// Schedules is WithSample's schedule budget.
	Schedules int `json:"schedules,omitempty"`
	// D is WithSample's PCT priority-change-point count.
	D int `json:"d,omitempty"`
	// Walk maps to WithSampleWalk.
	Walk bool `json:"walk,omitempty"`
	// Seed maps to WithSeed (0: keep the default seed 1). A literal
	// seed 0 is not expressible through a Spec, and never needs to be:
	// a Report.FailingSeed worth replaying is Seed+index of a run whose
	// Seed was nonzero under this very mapping.
	Seed int64 `json:"seed,omitempty"`
	// TimeoutMs maps to WithTimeout: the wall-clock budget in
	// milliseconds (0: none).
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// Options maps the spec onto the equivalent Checker options, in a fixed
// order. Object, environment and properties are deliberately absent:
// they are code, supplied by the caller (for slxd, by the target
// registry) alongside these options.
func (s Spec) Options() []Option {
	// Negative values are applied, not skipped: they must reach
	// ValidateExplore and be rejected with their field's message, not
	// silently explore with the default.
	var opts []Option
	if s.Procs != 0 {
		opts = append(opts, WithProcs(s.Procs))
	}
	if s.Depth != 0 {
		opts = append(opts, WithDepth(s.Depth))
	}
	if s.Crashes != 0 {
		opts = append(opts, WithCrashes(s.Crashes))
	}
	if s.Recoveries != 0 {
		opts = append(opts, WithRecoveries(s.Recoveries))
	}
	if s.Workers != 0 {
		opts = append(opts, WithWorkers(s.Workers))
	}
	if s.POR {
		opts = append(opts, WithPOR())
	}
	if s.Cache {
		opts = append(opts, WithStateCache())
	}
	if s.Replay {
		opts = append(opts, WithReplayExecution())
	}
	if s.Sample {
		opts = append(opts, WithSample(s.Schedules, s.D))
	}
	if s.Walk {
		opts = append(opts, WithSampleWalk())
	}
	if s.Seed != 0 {
		opts = append(opts, WithSeed(s.Seed))
	}
	if s.TimeoutMs != 0 {
		opts = append(opts, WithTimeout(time.Duration(s.TimeoutMs)*time.Millisecond))
	}
	return opts
}
