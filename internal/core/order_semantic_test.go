package core

import (
	"math/rand"
	"testing"

	"repro/internal/history"
	"repro/internal/liveness"
	"repro/internal/quickseed"
)

// randomExecution builds an arbitrary bounded execution with random
// steppers, crashes and good responses.
func randomExecution(r *rand.Rand, n int) *liveness.Execution {
	steps := 8 + r.Intn(24)
	e := &liveness.Execution{N: n, Steps: steps, Window: 1 + r.Intn(steps)}
	crashed := make(map[int]bool)
	for i := 0; i < steps; i++ {
		p := 1 + r.Intn(n)
		e.StepProcs = append(e.StepProcs, p)
		switch r.Intn(6) {
		case 0:
			if !crashed[p] {
				val := history.Value(history.Commit)
				if r.Intn(2) == 0 {
					val = history.Abort
				}
				e.H = append(e.H, history.Response(p, "op", val))
				e.EventSteps = append(e.EventSteps, i+1)
			}
		case 1:
			q := 1 + r.Intn(n)
			if !crashed[q] {
				crashed[q] = true
				e.H = append(e.H, history.Crash(q))
				e.EventSteps = append(e.EventSteps, i+1)
			}
		}
	}
	return e
}

// TestQuickLKOrderSemantics: the lattice order must agree with the
// checkers — whenever point p is StrongerEq than q, every execution
// satisfying (p.L,p.K)-freedom satisfies (q.L,q.K)-freedom.
func TestQuickLKOrderSemantics(t *testing.T) {
	good := liveness.TMGood()
	f := func(seed int64, a, b uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4
		e := randomExecution(r, n)
		p := LKPoint{L: 1 + int(a)%n, K: 1 + int(a)%n + int(b)%2}
		q := LKPoint{L: 1 + int(b)%n, K: 1 + int(b)%n + int(a)%2}
		if p.K > n || q.K > n {
			return true
		}
		holdsP := (liveness.LK{L: p.L, K: p.K, Good: good}).Holds(e)
		holdsQ := (liveness.LK{L: q.L, K: q.K, Good: good}).Holds(e)
		if p.StrongerEq(q) && holdsP && !holdsQ {
			t.Logf("order violated: %v holds but weaker %v fails on N=%d steps=%v H=%s",
				p, q, e.N, e.StepProcs, e.H)
			return false
		}
		if q.StrongerEq(p) && holdsQ && !holdsP {
			return false
		}
		return true
	}
	quickseed.Check(t, f, 600)
}

// TestQuickLKLiteralOrderSemantics: the same monotonicity holds for the
// literal Definition 5.1 reading.
func TestQuickLKLiteralOrderSemantics(t *testing.T) {
	f := func(seed int64, a, b uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3
		e := randomExecution(r, n)
		p := LKPoint{L: 1 + int(a)%n, K: 1 + int(a)%n + int(b)%2}
		q := LKPoint{L: 1 + int(b)%n, K: 1 + int(b)%n + int(a)%2}
		if p.K > n || q.K > n || !p.StrongerEq(q) {
			return true
		}
		holdsP := (liveness.LKLiteral{L: p.L, K: p.K}).Holds(e)
		holdsQ := (liveness.LKLiteral{L: q.L, K: q.K}).Holds(e)
		return !holdsP || holdsQ
	}
	quickseed.Check(t, f, 400)
}

// TestTheorem44TwoImplSweep widens the exhaustive Theorem 4.4 verification
// to models with two implementations.
func TestTheorem44TwoImplSweep(t *testing.T) {
	u := 3
	all := uint32(1)<<uint(u) - 1
	for lmax := uint32(1); lmax <= all; lmax++ {
		for f1 := uint32(1); f1 <= all; f1++ {
			for f2 := f1; f2 <= all; f2++ {
				m := &FiniteModel{U: u, Lmax: lmax, Impls: []uint32{f1, f2}}
				r, err := m.CheckTheorem44()
				if err != nil {
					t.Fatal(err)
				}
				if !r.Agrees {
					t.Fatalf("Theorem 4.4 fails on Lmax=%b f1=%b f2=%b: %+v", lmax, f1, f2, r)
				}
				if !r.WeakestIsGmaxComplement {
					t.Fatalf("weakest != complement(Gmax) on Lmax=%b f1=%b f2=%b", lmax, f1, f2)
				}
			}
		}
	}
}
