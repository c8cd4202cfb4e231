package safety

import (
	"math/rand"
	"testing"

	"repro/internal/history"
)

// TestTMMonitorPin pins the TM monitors step for step: over 2,000
// histories — half decoded by fuzzTMHistory from random bytes (crashes,
// recoveries and malformed responses included, up to four processes),
// half from randTMHistory — every Step result and every StateDigest of
// the monitor and of a fork taken at a random point is folded into one
// word per property. The words were recorded with the monitor that
// rebuilt history.Transactions and re-ran the serialization search and
// the timestamp rule over the whole history on every response, so the
// incremental records, the skipped searches and the lazy digest must
// reproduce its verdicts and digests exactly.
func TestTMMonitorPin(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spawn func() *TMMonitor
		want  uint64
	}{
		{"opacity", NewOpacityMonitor, 1465116573213217868},
		{"strict-serializability", NewStrictSerializabilityMonitor, 15958119284138639250},
		{"property-S", NewPropertySMonitor, 3951184230161181670},
	} {
		r := rand.New(rand.NewSource(20))
		sum := history.DigestSeed()
		fold := func(ok bool, m *TMMonitor) {
			d, dok := m.StateDigest()
			sum = history.DigestWord(sum, d)
			var flags byte
			if ok {
				flags |= 1
			}
			if dok {
				flags |= 2
			}
			sum = history.DigestByte(sum, flags)
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
		if sum != tc.want {
			t.Errorf("%s: pinned word %d, want %d (%d of 2000 histories violate)", tc.name, sum, tc.want, fails)
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
