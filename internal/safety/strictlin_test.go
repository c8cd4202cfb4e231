package safety

import (
	"math/rand"
	"testing"

	"repro/internal/history"
)

// TestStrictLinearizableBasics pins the crash semantics on directed
// histories: an operation pending at its process's crash either
// linearizes before the crash point or vanishes — never both, and
// never later.
func TestStrictLinearizableBasics(t *testing.T) {
	spec := RegisterSpec{Initial: 0}
	cases := []struct {
		name string
		h    history.History
		want bool
	}{
		{"crashed write linearizes", history.History{
			history.Invoke(1, "write", 1),
			history.Crash(1),
			history.Invoke(2, "read", nil),
			history.Response(2, "read", 1),
		}, true},
		{"crashed write vanishes", history.History{
			history.Invoke(1, "write", 1),
			history.Crash(1),
			history.Invoke(2, "read", nil),
			history.Response(2, "read", 0),
			history.Invoke(2, "read", nil),
			history.Response(2, "read", 0),
		}, true},
		{"crashed write cannot materialize late", history.History{
			// The write must linearize before the crash (then the first
			// read sees 1) or vanish (then the second cannot see 1);
			// 0-then-1 needs it to take effect between two post-crash
			// reads, which strict linearizability forbids.
			history.Invoke(1, "write", 1),
			history.Crash(1),
			history.Invoke(2, "read", nil),
			history.Response(2, "read", 0),
			history.Invoke(2, "read", nil),
			history.Response(2, "read", 1),
		}, false},
		{"recovered process starts fresh", history.History{
			history.Invoke(1, "write", 1),
			history.Crash(1),
			history.Recover(1),
			history.Invoke(1, "write", 2),
			history.Response(1, "write", history.OK),
			history.Invoke(2, "read", nil),
			history.Response(2, "read", 2),
		}, true},
		{"crash with nothing pending is inert", history.History{
			history.Invoke(1, "write", 1),
			history.Response(1, "write", history.OK),
			history.Crash(1),
			history.Invoke(2, "read", nil),
			history.Response(2, "read", 1),
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := StrictLinearizable(spec, tc.h); got != tc.want {
				t.Errorf("StrictLinearizable = %v, want %v on %s", got, tc.want, tc.h)
			}
			if got := oracleLinearizable(spec, tc.h, true); got != tc.want {
				t.Errorf("oracle = %v, want %v on %s", got, tc.want, tc.h)
			}
		})
	}
}

// TestStrictImpliesPlainOnLateMaterialization pins the separation: the
// late-materialization history is linearizable in the plain sense (a
// pending operation may take effect at any point) but not strictly.
func TestStrictImpliesPlainOnLateMaterialization(t *testing.T) {
	spec := RegisterSpec{Initial: 0}
	h := history.History{
		history.Invoke(1, "write", 1),
		history.Crash(1),
		history.Invoke(2, "read", nil),
		history.Response(2, "read", 0),
		history.Invoke(2, "read", nil),
		history.Response(2, "read", 1),
	}
	if !Linearizable(spec, h) {
		t.Fatal("plain linearizability must accept the late materialization")
	}
	if StrictLinearizable(spec, h) {
		t.Fatal("strict linearizability must reject it")
	}
}

// randCrashRegisterHistory is randRegisterHistory with crash and
// recovery events mixed in: a crashed process leaves its operation
// pending forever (or until a recovery, after which it may invoke
// afresh).
func randCrashRegisterHistory(r *rand.Rand, n, events int) history.History {
	var h history.History
	type pend struct{ op string }
	pending := make(map[int]*pend)
	crashed := make(map[int]bool)
	for len(h) < events {
		p := 1 + r.Intn(n)
		if crashed[p] {
			if r.Intn(4) == 0 {
				h = append(h, history.Recover(p))
				crashed[p] = false
				pending[p] = nil
			}
			continue
		}
		if r.Intn(10) == 0 {
			h = append(h, history.Crash(p))
			crashed[p] = true
			continue
		}
		if pd := pending[p]; pd != nil {
			if pd.op == "read" {
				h = append(h, history.Response(p, "read", r.Intn(3)))
			} else {
				h = append(h, history.Response(p, "write", history.OK))
			}
			pending[p] = nil
			continue
		}
		if r.Intn(2) == 0 {
			h = append(h, history.Invoke(p, "read", nil))
			pending[p] = &pend{op: "read"}
		} else {
			h = append(h, history.Invoke(p, "write", r.Intn(3)))
			pending[p] = &pend{op: "write"}
		}
	}
	return h
}

// TestMonitorEquivalenceStrictLinearizability cross-checks the strict
// monitor against the strict Wing–Gong oracle at every prefix of random
// crash/recovery histories, forks included, via the shared harness.
func TestMonitorEquivalenceStrictLinearizability(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	spec := RegisterSpec{Initial: 0}
	spawn := func() Monitor { return NewStrictLinMonitor(spec) }
	oracle := func(h history.History) bool { return oracleLinearizable(spec, h, true) }
	for i := 0; i < 300; i++ {
		h := randCrashRegisterHistory(r, 3, 4+r.Intn(16))
		crossCheck(t, "strict-linearizability(register)", spawn, oracle, h, r.Intn(len(h)))
	}
}

// TestStrictEqualsPlainWithoutCrashes: on crash-free histories the
// strict check coincides with plain linearizability, as the plain
// oracle decides it.
func TestStrictEqualsPlainWithoutCrashes(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	spec := RegisterSpec{Initial: 0}
	for i := 0; i < 300; i++ {
		h := randRegisterHistory(r, 3, 4+r.Intn(16))
		plain := oracleLinearizable(spec, h, false)
		if strict := StrictLinearizable(spec, h); strict != plain {
			t.Fatalf("crash-free divergence: strict=%v plain=%v on %s", strict, plain, h)
		}
	}
}

// TestStrictLinearizabilityPropertyPrefixClosed: the property stays
// failed on every extension once it fails (Definition 3.1), crash and
// recovery events included.
func TestStrictLinearizabilityPropertyPrefixClosed(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	p := StrictLinearizabilityProperty(RegisterSpec{Initial: 0})
	for i := 0; i < 120; i++ {
		h := randCrashRegisterHistory(r, 3, 6+r.Intn(14))
		if !PrefixClosed(p, h) {
			t.Fatalf("not prefix-closed along %s", h)
		}
	}
}
