package slx

import (
	"fmt"
	"strings"

	"repro/slx/run"
)

// Mode says which Checker entry point produced a Report.
type Mode int

// Modes.
const (
	// ModeCheck: one scheduled run (Checker.Check).
	ModeCheck Mode = iota + 1
	// ModeReplay: a replayed schedule (Checker.Replay).
	ModeReplay
	// ModeAdversary: an attack strategy's run (Checker.Adversary).
	ModeAdversary
	// ModeExplore: exhaustive bounded exploration (Checker.Explore).
	ModeExplore
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeCheck:
		return "check"
	case ModeReplay:
		return "replay"
	case ModeAdversary:
		return "adversary"
	case ModeExplore:
		return "explore"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Report is the unified outcome of every Checker entry point.
type Report struct {
	// Mode says how the report was produced.
	Mode Mode
	// Adversary names the strategy when Mode is ModeAdversary.
	Adversary string
	// Execution is the judged execution. For a clean exploration it is
	// nil (no single run is distinguished); for a violated exploration it
	// is the violating prefix's execution.
	Execution *Execution
	// Schedule is the replayable schedule of Execution, nil when
	// Execution is.
	Schedule []run.Decision
	// Verdicts holds one entry per checked property (exploration stops
	// at the first violation and reports only it).
	Verdicts []Verdict
	// Prefixes and SimSteps are exploration statistics: histories
	// checked, and the simulator steps executed on the exploration
	// path. Under the snapshot strategy (the default for objects with
	// the run.Snapshottable hook) SimSteps is one step per explored
	// non-crash edge; from-root rebuilds (WithReplayExecution, or
	// objects without the hooks) add the steps they re-execute.
	Prefixes, SimSteps int
	// Resims counts simulator steps spent re-establishing already
	// visited configurations: the steps from-root rebuilds re-execute
	// (also counted in SimSteps), stolen-subtree seed replays, and the
	// POR split probes that precompute a stolen sibling's sleep set.
	Resims int
	// Pruned counts the subtrees partial-order reduction skipped during
	// an exploration (0 unless WithPOR).
	Pruned int
	// CacheHits counts the subtrees skipped because their root's
	// configuration was already fully explored (0 unless
	// WithStateCache).
	CacheHits int
	// Workers is the number of exploration workers actually used
	// (WithWorkers; counts below 1 are rejected by validation). Zero
	// outside ModeExplore.
	Workers int
	// Depth is the schedule bound the exploration used (WithDepth, or
	// the default when unset): the exhaustive depth, or each sampled
	// schedule's step bound. Zero outside ModeExplore.
	Depth int
	// EventScans counts the (event, monitor) judgments of an
	// exploration: the events fed to the monitor set, each judged once
	// per path, times the number of properties — minus, on a violation,
	// the monitors after the failing one, which never saw the violating
	// event. In sampling mode it is counted over the deterministic
	// merged prefix of schedules (work discarded past a violation or
	// cancellation is excluded, so the number is worker-count
	// independent).
	EventScans int
	// Sampled marks a sampling-mode exploration (WithSample): Prefixes
	// is 0 and the three fields below are populated instead.
	Sampled bool
	// Schedules counts the sampled schedules merged into the report: on
	// a violation, the failing schedule and every schedule before it in
	// index order; on cancellation, the completed prefix.
	Schedules int
	// DistinctStates counts the distinct terminal-state fingerprints the
	// merged schedules reached — the sampling coverage measure (0 when
	// the object has no run.Fingerprintable hook).
	DistinctStates int
	// FailingSeed is the seed of the failing schedule when a sampled
	// violation was found (0 otherwise): WithSeed(FailingSeed) with
	// WithSample(1, d) re-derives exactly its schedule.
	FailingSeed int64
	// Interrupted marks a report cut short by context cancellation or a
	// WithTimeout expiry before the exploration finished: the
	// statistics cover the work completed before the cut (merged
	// schedules in sampling mode, explored prefixes in exhaustive
	// mode), and there are no verdicts — a partial exploration proves
	// nothing. Explore returns such a partial report together with the
	// context error.
	Interrupted bool
}

// OK reports whether every verdict holds.
func (r *Report) OK() bool {
	for _, v := range r.Verdicts {
		if !v.Holds {
			return false
		}
	}
	return true
}

// Failures returns the verdicts that do not hold.
func (r *Report) Failures() []Verdict {
	var out []Verdict
	for _, v := range r.Verdicts {
		if !v.Holds {
			out = append(out, v)
		}
	}
	return out
}

// Verdict returns the verdict for the named property.
func (r *Report) Verdict(name string) (Verdict, bool) {
	for _, v := range r.Verdicts {
		if v.Property == name {
			return v, true
		}
	}
	return Verdict{}, false
}

// Witness returns the witness schedule of the first failing verdict, nil
// when every verdict holds.
func (r *Report) Witness() []run.Decision {
	for _, v := range r.Verdicts {
		if !v.Holds {
			return v.Witness
		}
	}
	return nil
}

// String renders a one-paragraph human-readable summary.
func (r *Report) String() string {
	var b strings.Builder
	switch r.Mode {
	case ModeExplore:
		if r.Sampled {
			fmt.Fprintf(&b, "explore (sampled): %d schedules, %d distinct states, %d simulator steps, %d property-event scans",
				r.Schedules, r.DistinctStates, r.SimSteps, r.EventScans)
			if r.Workers > 1 {
				fmt.Fprintf(&b, ", %d workers", r.Workers)
			}
			if r.FailingSeed != 0 {
				fmt.Fprintf(&b, ", failing seed %d", r.FailingSeed)
			}
			if r.Interrupted {
				b.WriteString(", interrupted")
			}
			b.WriteString("\n")
			for _, v := range r.Verdicts {
				fmt.Fprintf(&b, "  %s\n", v)
			}
			return b.String()
		}
		fmt.Fprintf(&b, "explore: %d prefixes, %d simulator steps, %d property-event scans", r.Prefixes, r.SimSteps, r.EventScans)
		if r.Resims > 0 {
			fmt.Fprintf(&b, ", %d resim steps", r.Resims)
		}
		if r.Pruned > 0 {
			fmt.Fprintf(&b, ", %d subtrees pruned", r.Pruned)
		}
		if r.CacheHits > 0 {
			fmt.Fprintf(&b, ", %d state-cache hits", r.CacheHits)
		}
		if r.Workers > 1 {
			fmt.Fprintf(&b, ", %d workers", r.Workers)
		}
		if r.Interrupted {
			b.WriteString(", interrupted")
		}
		b.WriteString("\n")
	case ModeAdversary:
		fmt.Fprintf(&b, "adversary %s: %d-step run, %d events\n", r.Adversary, r.Execution.Steps, len(r.Execution.H))
	default:
		fmt.Fprintf(&b, "%s: %d-step run, %d events\n", r.Mode, r.Execution.Steps, len(r.Execution.H))
	}
	for _, v := range r.Verdicts {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	return b.String()
}
