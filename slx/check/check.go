// Package check is the public catalog of the paper's concrete
// properties, every one expressed as a unified slx.Property: safety
// (Section 3.1 — linearizability, consensus agreement+validity, mutual
// exclusion, TM opacity, strict serializability and the Section 5.3
// property S) and liveness (Sections 3.2 and 5.1 — wait/lock/obstruction
// freedom, local progress, the (l,k)-freedom family, S-freedom and
// (n,x)-liveness).
//
// All constructors delegate to the checkers in internal/safety and
// internal/liveness; the verdicts they produce carry failure reasons
// phrased in the paper's vocabulary (correct / stepping / progressing
// process sets) and replayable witness schedules.
package check

import (
	"fmt"

	"repro/internal/liveness"
	"repro/internal/safety"
	"repro/slx"
	"repro/slx/hist"
)

// Good is a good-response set G_Tp; see slx.Good.
type Good = slx.Good

// TMGood is the TM good-response set: only commits are progress.
func TMGood() Good { return slx.TMGood() }

// fromLiveness adapts an internal liveness property, explaining failures
// with the correct/stepping/progressing sets of the tail window.
func fromLiveness(p liveness.Property, good Good) slx.Property {
	return slx.LivenessFunc(p.Name(),
		func(e *slx.Execution) bool { return p.Holds(e.LivenessView()) },
		func(e *slx.Execution) string {
			v := e.LivenessView()
			return fmt.Sprintf("violated: correct=%v steppers=%v progressing=%v in the tail window of the %d-step run",
				v.Correct(), v.Steppers(), v.Progressing(good), e.Steps)
		})
}

// Safety properties. Every safety constructor pairs the batch checker
// with its native incremental monitor (slx.Property.Spawn), so
// Checker.Explore feeds each event once per DFS edge instead of
// re-judging whole prefixes.

// AgreementValidity is the consensus safety property: no two processes
// decide differently, and every decision was proposed.
func AgreementValidity() slx.Property {
	p := safety.AgreementValidity{}
	return monitored(p.Name(), p.Holds, p.Spawn)
}

// KSetAgreement is k-set agreement safety: at most k distinct decisions,
// each of them proposed.
func KSetAgreement(k int) slx.Property {
	p := safety.KSetAgreement{K: k}
	return monitored(p.Name(), p.Holds, p.Spawn)
}

// MutualExclusion is the lock safety property: no two processes hold the
// critical section simultaneously, and only the holder releases.
func MutualExclusion() slx.Property {
	p := safety.MutualExclusion{}
	return monitored(p.Name(), p.Holds, p.Spawn)
}

// Opacity is TM opacity: a global serialization legal at every prefix,
// aborted and live transactions included.
func Opacity() slx.Property {
	p := safety.Opacity{}
	return monitored(p.Name(), safety.Opaque, p.Spawn)
}

// StrictSerializability relaxes opacity to committed transactions.
func StrictSerializability() slx.Property {
	p := safety.StrictSerializability{}
	return monitored(p.Name(), p.Holds, p.Spawn)
}

// PropertyS is the Section 5.3 property: opacity plus the
// timestamp-based abort rule of Algorithm 1.
func PropertyS() slx.Property {
	p := safety.PropertyS{}
	return monitored(p.Name(), p.Holds, p.Spawn)
}

// Sequential specifications for the generic linearizability checker.
type (
	// SeqSpec is a sequential object specification. Apply must be a pure
	// function of its arguments (the monitor applies each state and
	// invocation once per job); states and responses compare by ==, and
	// one whose dynamic type is not comparable equals nothing.
	SeqSpec = safety.SeqSpec
	// State is an opaque sequential-specification state.
	State = safety.State
	// Transition is one legal (response, next-state) pair.
	Transition = safety.Transition
	// RegisterSpec is the atomic read/write register specification.
	RegisterSpec = safety.RegisterSpec
	// CASSpec is the compare-and-swap object specification.
	CASSpec = safety.CASSpec
	// QueueSpec is the FIFO queue specification ("enq"/"deq" with
	// string-encoded payloads; see safety.QueueSpec).
	QueueSpec = safety.QueueSpec
	// CASArg is the argument struct of a cas invocation.
	CASArg = safety.CASArg
)

// Linearizability is linearizability with respect to the sequential
// specification spec. One decision procedure serves every path: the
// incremental monitor carries a persistent set of partial linearizations
// along the history (safety.LinMonitor), and the batch check replays the
// history through a fresh one. Histories of any length are accepted, but
// at most 64 operations may be pending at once — one per process, plus
// one per crashed operation a recovered process left behind; beyond
// that the monitor panics rather than return a verdict.
func Linearizability(spec SeqSpec) slx.Property {
	p := safety.LinearizabilityProperty(spec)
	return monitored(p.Name(), p.Holds, p.Spawn)
}

// StrictLinearizability is the crash-aware variant of Linearizability
// (Aguilera–Frølund strict linearizability): an operation pending when
// its process crashes either linearizes before the crash point or
// vanishes, so a process that recovers observes exactly the effects
// that were durable at its crash. On crash-free histories it coincides
// with Linearizability. Use it with WithCrashes/WithRecoveries; the
// plain property is too weak there — it lets a crashed operation take
// effect after its process has already recovered and moved on. Like
// Linearizability it is decided by the one monitor, with no bound on
// history length and at most 64 operations pending at once (a crash
// closes its operation here, so that is at most one per process).
func StrictLinearizability(spec SeqSpec) slx.Property {
	p := safety.StrictLinearizabilityProperty(spec)
	return monitored(p.Name(), p.Holds, p.Spawn)
}

// Opaque reports TM opacity of a single history (the raw predicate
// behind Opacity).
func Opaque(h hist.History) bool { return safety.Opaque(h) }

// Decisions extracts the per-process consensus decisions of a history.
func Decisions(h hist.History) map[int]hist.Value { return safety.Decisions(h) }

// PrefixClosed verifies on a concrete history that a safety property is
// prefix-closed along it (Definition 3.1): once it fails at some prefix
// it fails at all extensions. Used to validate custom checkers.
func PrefixClosed(p slx.Property, h hist.History) bool {
	return safety.PrefixClosed(safety.PropertyFunc{
		PropName: p.Name(),
		F: func(h hist.History) bool {
			return p.Check(&slx.Execution{H: h}).Holds
		},
	}, h)
}

// Liveness properties.

// WaitFreedom requires every correct process to make progress — the
// strongest liveness requirement L_max for types whose every response is
// good (consensus, registers).
func WaitFreedom(good Good) slx.Property {
	return fromLiveness(liveness.WaitFreedom{Good: good}, good)
}

// LocalProgress is the TM L_max: every correct process eventually
// commits.
func LocalProgress() slx.Property {
	return fromLiveness(liveness.LocalProgress{}, TMGood())
}

// LLockFreedom is l-lock-freedom: at least l processes make progress if
// at least l are correct (all correct ones otherwise).
func LLockFreedom(l int, good Good) slx.Property {
	return fromLiveness(liveness.LLockFreedom{L: l, Good: good}, good)
}

// KObstructionFreedom is k-obstruction-freedom: whenever at most k
// processes take infinitely many steps, all of them make progress.
func KObstructionFreedom(k int, good Good) slx.Property {
	return fromLiveness(liveness.KObstructionFreedom{K: k, Good: good}, good)
}

// LK is (l,k)-freedom (Definition 5.1), realized as the union of
// l-lock-freedom and k-obstruction-freedom the paper reasons with.
// Requires l <= k.
func LK(l, k int, good Good) slx.Property {
	return fromLiveness(liveness.LK{L: l, K: k, Good: good}, good)
}

// LKLiteral is the literal implication form of Definition 5.1; it
// differs from LK on executions where fewer than l processes step at
// all.
func LKLiteral(l, k int, good Good) slx.Property {
	return fromLiveness(liveness.LKLiteral{L: l, K: k, Good: good}, good)
}

// SFreedom is Taubenfeld's S-freedom: progress for every contention-free
// process group whose size is in sizes.
func SFreedom(sizes []int, good Good) slx.Property {
	set := make(map[int]bool, len(sizes))
	for _, s := range sizes {
		set[s] = true
	}
	return fromLiveness(liveness.SFreedom{Sizes: set, Good: good}, good)
}

// NXLiveness is the (n,x)-liveness of Imbs-Raynal-Taubenfeld: the listed
// processes are wait-free, the rest obstruction-free.
func NXLiveness(waitFree []int, good Good) slx.Property {
	return fromLiveness(liveness.NXLiveness{WaitFree: waitFree, Good: good}, good)
}

// Fair asserts the windowed fairness of the execution itself (Section
// 3.2): every correct, non-parked process steps in the tail window.
// Liveness verdicts are only meaningful when Fair holds.
func Fair() slx.Property {
	return slx.LivenessFunc("fair", func(e *slx.Execution) bool { return e.Fair() },
		func(e *slx.Execution) string {
			return fmt.Sprintf("unfair: correct=%v but only %v step in the tail window", e.Correct(), e.Steppers())
		})
}
