// Package quickseed gives the tests' testing/quick checks one fixed
// source of inputs, so two passes of a check cover the same inputs and
// a failure reproduces. Every check draws from a Rand seeded with the
// same value, which a failure names; the -quickseed test flag replaces
// it, e.g.
//
//	go test ./internal/safety -run TestQuickOpacityMatchesBruteForce -quickseed 7
package quickseed

import (
	"flag"
	"math/rand"
	"testing"
	"testing/quick"
)

var seed = flag.Int64("quickseed", 1, "seed of the inputs every testing/quick check draws")

// Check runs quick.Check on f over maxCount inputs (0: quick's default
// of 100) drawn from a Rand seeded with the -quickseed value, and fails
// t with quick's error and the seed when f does not hold.
func Check(t testing.TB, f any, maxCount int) {
	t.Helper()
	cfg := &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(*seed))}
	if err := quick.Check(f, cfg); err != nil {
		t.Errorf("%v (-quickseed %d)", err, *seed)
	}
}
