package safety

import (
	"math/rand"
	"testing"

	"repro/internal/history"
	"repro/internal/quickseed"
)

func inv(p int, op string, arg history.Value) history.Event {
	return history.Invoke(p, op, arg)
}

func res(p int, op string, val history.Value) history.Event {
	return history.Response(p, op, val)
}

func TestLinearizableRegisterBasics(t *testing.T) {
	spec := RegisterSpec{Initial: 0}
	tests := []struct {
		name string
		h    history.History
		want bool
	}{
		{"empty", history.History{}, true},
		{"read initial", history.History{
			inv(1, "read", nil), res(1, "read", 0),
		}, true},
		{"read wrong initial", history.History{
			inv(1, "read", nil), res(1, "read", 7),
		}, false},
		{"sequential write then read", history.History{
			inv(1, "write", 5), res(1, "write", history.OK),
			inv(1, "read", nil), res(1, "read", 5),
		}, true},
		{"stale read after completed write", history.History{
			inv(1, "write", 5), res(1, "write", history.OK),
			inv(2, "read", nil), res(2, "read", 0),
		}, false},
		{"concurrent write read old", history.History{
			inv(1, "write", 5),
			inv(2, "read", nil), res(2, "read", 0),
			res(1, "write", history.OK),
		}, true},
		{"concurrent write read new", history.History{
			inv(1, "write", 5),
			inv(2, "read", nil), res(2, "read", 5),
			res(1, "write", history.OK),
		}, true},
		{"pending write takes effect", history.History{
			inv(1, "write", 9),
			inv(2, "read", nil), res(2, "read", 9),
		}, true},
		{"pending write ignored", history.History{
			inv(1, "write", 9),
			inv(2, "read", nil), res(2, "read", 0),
		}, true},
		{"new-old inversion", history.History{
			inv(1, "write", 1),
			inv(2, "read", nil), res(2, "read", 1),
			inv(3, "read", nil), res(3, "read", 0),
			res(1, "write", history.OK),
		}, false},
		{"crashed pending write may count", history.History{
			inv(1, "write", 3), history.Crash(1),
			inv(2, "read", nil), res(2, "read", 3),
		}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Linearizable(spec, tt.h); got != tt.want {
				t.Errorf("Linearizable = %v, want %v for %s", got, tt.want, tt.h)
			}
		})
	}
}

func TestLinearizableCAS(t *testing.T) {
	spec := CASSpec{Initial: 0}
	tests := []struct {
		name string
		h    history.History
		want bool
	}{
		{"winning cas", history.History{
			inv(1, "cas", CASArg{Old: 0, New: 1}), res(1, "cas", true),
			inv(1, "read", nil), res(1, "read", 1),
		}, true},
		{"two cas same old only one wins", history.History{
			inv(1, "cas", CASArg{Old: 0, New: 1}), res(1, "cas", true),
			inv(2, "cas", CASArg{Old: 0, New: 2}), res(2, "cas", true),
		}, false},
		{"concurrent cas both claim win", history.History{
			inv(1, "cas", CASArg{Old: 0, New: 1}),
			inv(2, "cas", CASArg{Old: 0, New: 2}),
			res(1, "cas", true), res(2, "cas", true),
		}, false},
		{"concurrent cas win then lose", history.History{
			inv(1, "cas", CASArg{Old: 0, New: 1}),
			inv(2, "cas", CASArg{Old: 0, New: 2}),
			res(1, "cas", true), res(2, "cas", false),
		}, true},
		{"chained cas", history.History{
			inv(1, "cas", CASArg{Old: 0, New: 1}), res(1, "cas", true),
			inv(2, "cas", CASArg{Old: 1, New: 2}), res(2, "cas", true),
			inv(1, "read", nil), res(1, "read", 2),
		}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Linearizable(spec, tt.h); got != tt.want {
				t.Errorf("Linearizable = %v, want %v for %s", got, tt.want, tt.h)
			}
		})
	}
}

func TestLinearizabilityPropertyPrefixClosed(t *testing.T) {
	spec := RegisterSpec{Initial: 0}
	prop := LinearizabilityProperty(spec)
	h := history.History{
		inv(1, "write", 1),
		inv(2, "read", nil), res(2, "read", 1),
		inv(3, "read", nil), res(3, "read", 0),
		res(1, "write", history.OK),
	}
	if !PrefixClosed(prop, h) {
		t.Error("linearizability checker must behave prefix-closed along this history")
	}
}

// TestLinearizableNoLengthCap: masks index pending slots, not positions
// in the history, so a 200-operation history — past the 63 operations a
// position-indexed mask could hold — is judged on its merits by both
// checks: accepted when linearizable, rejected by a stale last read.
func TestLinearizableNoLengthCap(t *testing.T) {
	spec := RegisterSpec{Initial: 0}
	var h history.History
	for i := 0; i < 100; i++ {
		h = append(h, inv(1, "write", i), res(1, "write", history.OK))
		h = append(h, inv(2, "read", nil), res(2, "read", i))
	}
	if !Linearizable(spec, h) || !StrictLinearizable(spec, h) {
		t.Errorf("200-operation sequential history rejected: plain=%v strict=%v",
			Linearizable(spec, h), StrictLinearizable(spec, h))
	}
	stale := append(h, inv(2, "read", nil), res(2, "read", 98))
	if Linearizable(spec, stale) || StrictLinearizable(spec, stale) {
		t.Error("a stale read after 200 operations accepted")
	}
}

// bruteLinearizable is an exponential oracle: it tries every permutation of
// every subset of operations that contains all completed ones.
func bruteLinearizable(spec SeqSpec, h history.History) bool {
	ops := h.Operations()
	n := len(ops)
	var rec func(placed []int, used uint64, st State) bool
	rec = func(placed []int, used uint64, st State) bool {
		allCompleted := true
		for i, op := range ops {
			if op.Done && used&(1<<uint(i)) == 0 {
				allCompleted = false
				break
			}
		}
		if allCompleted {
			return true
		}
		for i := 0; i < n; i++ {
			if used&(1<<uint(i)) != 0 {
				continue
			}
			ok := true
			for j := 0; j < n; j++ {
				if j != i && used&(1<<uint(j)) == 0 && history.PrecedesRealTime(ops[j], ops[i]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			op := ops[i]
			for _, tr := range spec.Apply(st, op.Proc, op.Name, op.Obj, op.Arg) {
				if op.Done && tr.Resp != op.Val {
					continue
				}
				if rec(append(placed, i), used|1<<uint(i), tr.Next) {
					return true
				}
			}
		}
		return false
	}
	return rec(nil, 0, spec.Init())
}

func TestQuickLinearizableMatchesBruteForce(t *testing.T) {
	spec := RegisterSpec{Initial: 0}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomRegisterHistory(r, 3, 8)
		want := bruteLinearizable(spec, h)
		return oracleLinearizable(spec, h, false) == want && Linearizable(spec, h) == want
	}
	quickseed.Check(t, f, 300)
}

// randomRegisterHistory generates a small well-formed register history with
// arbitrary (often non-linearizable) response values.
func randomRegisterHistory(r *rand.Rand, procs, events int) history.History {
	var h history.History
	pending := make(map[int]string)
	for i := 0; i < events; i++ {
		p := 1 + r.Intn(procs)
		if op, ok := pending[p]; ok && r.Intn(2) == 0 {
			var val history.Value
			if op == "read" {
				val = r.Intn(3)
			} else {
				val = history.OK
			}
			h = append(h, res(p, op, val))
			delete(pending, p)
			continue
		}
		if _, ok := pending[p]; ok {
			continue
		}
		if r.Intn(2) == 0 {
			h = append(h, inv(p, "read", nil))
			pending[p] = "read"
		} else {
			h = append(h, inv(p, "write", r.Intn(3)))
			pending[p] = "write"
		}
	}
	return h
}

func TestAgreementValidity(t *testing.T) {
	prop := AgreementValidity{}
	tests := []struct {
		name string
		h    history.History
		want bool
	}{
		{"empty", history.History{}, true},
		{"agreeing decisions", history.History{
			inv(1, "propose", 7), inv(2, "propose", 9),
			res(1, "propose", 7), res(2, "propose", 7),
		}, true},
		{"disagreement", history.History{
			inv(1, "propose", 7), inv(2, "propose", 9),
			res(1, "propose", 7), res(2, "propose", 9),
		}, false},
		{"invalid value", history.History{
			inv(1, "propose", 7), res(1, "propose", 3),
		}, false},
		{"decide others proposal", history.History{
			inv(1, "propose", 7), inv(2, "propose", 9),
			res(1, "propose", 9),
		}, true},
		{"decision before that proposal exists", history.History{
			inv(1, "propose", 7), res(1, "propose", 9),
			inv(2, "propose", 9),
		}, false},
		{"pending ok", history.History{
			inv(1, "propose", 7), inv(2, "propose", 9),
		}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := prop.Holds(tt.h); got != tt.want {
				t.Errorf("Holds = %v, want %v", got, tt.want)
			}
			if !PrefixClosed(prop, tt.h) {
				t.Error("agreement+validity must be prefix-closed")
			}
		})
	}
}

func TestDecisions(t *testing.T) {
	h := history.History{
		inv(1, "propose", 7), res(1, "propose", 7),
		inv(2, "propose", 9),
	}
	d := Decisions(h)
	if len(d) != 1 || d[1] != 7 {
		t.Errorf("Decisions = %v", d)
	}
}
