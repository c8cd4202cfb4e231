package safety

import (
	"math/rand"
	"testing"

	"repro/internal/history"
)

// TestTMMonitorPin pins the TM monitors step for step: over 2,000
// histories — half decoded by fuzzTMHistory from random bytes (crashes,
// recoveries and malformed responses included, up to four processes),
// half from randTMHistory — the monitor and a fork taken at a random
// point fold two words per property at every step: the behavior word
// (the Step result and whether StateDigest could digest), folded by
// behaviorFold, and the digest word (the StateDigest value), folded by
// history.DigestWord. The behavior words were split out of words
// recorded with the monitor that rebuilt history.Transactions and re-ran
// the serialization search and the timestamp rule over the whole
// history on every response, so the incremental records and the skipped
// searches must reproduce its verdicts exactly; the digest words pin the
// lazy digest and the canonical fold, and move only when the fold
// deliberately changes.
func TestTMMonitorPin(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spawn func() *TMMonitor
		want  [2]uint64 // behavior word, digest word
	}{
		{"opacity", NewOpacityMonitor, [2]uint64{6445457006828503519, 7812266699012301183}},
		{"strict-serializability", NewStrictSerializabilityMonitor, [2]uint64{13321897162499790486, 12015189417027144083}},
		{"property-S", NewPropertySMonitor, [2]uint64{3316169826014276103, 215518087827303844}},
	} {
		r := rand.New(rand.NewSource(20))
		var behavior uint64
		digest := history.DigestSeed()
		fold := func(ok bool, m *TMMonitor) {
			d, dok := m.StateDigest()
			digest = history.DigestWord(digest, d)
			behavior = behaviorFold(behavior, ok, dok, 0)
		}
		fails := 0
		for i := 0; i < 2000; i++ {
			var h history.History
			if i%2 == 0 {
				buf := make([]byte, 64)
				for k := range buf {
					buf[k] = byte(r.Intn(256))
				}
				h = fuzzTMHistory(&fuzzBytes{b: buf}, 1+r.Intn(4), fuzzTMMaxEvents)
			} else {
				h = randTMHistory(r, 2+r.Intn(2), 6+r.Intn(24))
			}
			m := tc.spawn()
			forkAt := r.Intn(len(h) + 1)
			var fork *TMMonitor
			for k, e := range h {
				if k == forkAt {
					fork = m.Fork(nil).(*TMMonitor)
				}
				fold(m.Step(e), m)
				if fork != nil {
					fold(fork.Step(e), fork)
				}
			}
			if !m.OK() {
				fails++
			}
		}
		if got := [2]uint64{behavior, digest}; got != tc.want {
			t.Errorf("%s: pinned words %v, want %v (behavior, digest; %d of 2000 histories violate)", tc.name, got, tc.want, fails)
		}
	}
}

// TestTMMonitorForkIndependentSteps: a fork taken while a live
// transaction holds three steps (a slice with room for a fourth) must
// not share the room with its parent. The parent reads its own write and
// commits; the fork reads a value nobody wrote and commits, for which
// only the fork may be rejected, whichever of the two appends its read
// first.
func TestTMMonitorForkIndependentSteps(t *testing.T) {
	prefix := cat(tmStart(1), tmWrite(1, "x", 1), tmWrite(1, "y", 1), tmWrite(1, "x", 2))
	good := cat(tmRead(1, "x", 2), tmCommit(1))
	bad := cat(tmRead(1, "x", 7), tmCommit(1))
	for _, parentFirst := range []bool{true, false} {
		for _, p := range tmProps {
			m := p.spawn()
			for _, e := range prefix {
				m.Step(e)
			}
			fork := m.Fork(nil)
			if parentFirst {
				m.Step(good[0])
				fork.Step(bad[0])
			} else {
				fork.Step(bad[0])
				m.Step(good[0])
			}
			for i := 1; i < len(good); i++ {
				fork.Step(bad[i])
				m.Step(good[i])
			}
			if !m.OK() || fork.OK() {
				t.Errorf("%s (parent first %v): parent OK=%v, fork OK=%v; want true, false", p.name, parentFirst, m.OK(), fork.OK())
			}
		}
	}
}
