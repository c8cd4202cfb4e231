package safety

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/history"
)

// bruteSerializable is a naive reference implementation of the
// serialization search: plain recursive permutation enumeration with role
// choices, no memoization. Used as an oracle for the memoized DFS.
func bruteSerializable(recs []*txRecord, strict bool) bool {
	n := len(recs)
	placedMask := newBitset(n)
	var rec func(placed int, st varState) bool
	rec = func(placed int, st varState) bool {
		if placed == n {
			return true
		}
		for i, r := range recs {
			if placedMask.test(i) || !placedMask.containsAll(r.precede) {
				continue
			}
			for _, ro := range r.roles {
				switch ro {
				case roleCommitted:
					if !legal(r, st) {
						continue
					}
					placedMask.setBit(i)
					ok := rec(placed+1, applyWrites(r, st))
					placedMask.clearBit(i)
					if ok {
						return true
					}
				case roleAborted:
					if !strict && !legal(r, st) {
						continue
					}
					placedMask.setBit(i)
					ok := rec(placed+1, st)
					placedMask.clearBit(i)
					if ok {
						return true
					}
				}
			}
		}
		return false
	}
	return rec(0, varState{})
}

// randomTMValue draws a small int or, half the time, its decimal
// spelling: values that print alike but differ in type must never be
// confused by the serialization search.
func randomTMValue(r *rand.Rand) history.Value {
	v := r.Intn(3)
	if r.Intn(2) == 0 {
		return strconv.Itoa(v)
	}
	return v
}

// randomTMHistory generates a small well-formed TM history with arbitrary
// (frequently inconsistent) read values and outcomes.
func randomTMHistory(r *rand.Rand, procs, events int) history.History {
	vars := []string{"x", "y"}
	var h history.History
	type st struct {
		inTx    bool
		pending string // pending op name, "" if none
		obj     string
	}
	states := make(map[int]*st)
	for i := 0; i < events; i++ {
		p := 1 + r.Intn(procs)
		s := states[p]
		if s == nil {
			s = &st{}
			states[p] = s
		}
		switch {
		case s.pending != "":
			// Respond to the pending operation.
			var val history.Value
			switch s.pending {
			case history.TMStart:
				val = history.OK
			case history.TMRead:
				if r.Intn(6) == 0 {
					val = history.Abort
				} else {
					val = randomTMValue(r)
				}
			case history.TMWrite:
				val = history.OK
			case history.TMTryC:
				if r.Intn(2) == 0 {
					val = history.Commit
				} else {
					val = history.Abort
				}
			}
			h = append(h, history.ResponseObj(p, s.pending, s.obj, val))
			if val == history.Abort || (s.pending == history.TMTryC) {
				s.inTx = false
			}
			s.pending = ""
		case !s.inTx:
			h = append(h, history.Invoke(p, history.TMStart, nil))
			s.pending, s.obj = history.TMStart, ""
			s.inTx = true
		default:
			switch r.Intn(3) {
			case 0:
				obj := vars[r.Intn(len(vars))]
				h = append(h, history.InvokeObj(p, history.TMRead, obj, nil))
				s.pending, s.obj = history.TMRead, obj
			case 1:
				obj := vars[r.Intn(len(vars))]
				h = append(h, history.InvokeObj(p, history.TMWrite, obj, randomTMValue(r)))
				s.pending, s.obj = history.TMWrite, obj
			default:
				h = append(h, history.Invoke(p, history.TMTryC, nil))
				s.pending, s.obj = history.TMTryC, ""
			}
		}
	}
	return h
}

func TestQuickOpacityMatchesBruteForce(t *testing.T) {
	cfg := &quick.Config{MaxCount: 400}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomTMHistory(r, 2, 4+r.Intn(24))
		recs, ok := buildRecords(h)
		if !ok {
			return false
		}
		if serializable(recs, false) != bruteSerializable(recs, false) {
			t.Logf("opacity mismatch on %s", h)
			return false
		}
		if serializable(recs, true) != bruteSerializable(recs, true) {
			t.Logf("strict-serializability mismatch on %s", h)
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickOpacityPrefixClosureOnRandomHistories(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomTMHistory(r, 2, 4+r.Intn(16))
		return PrefixClosed(Opacity{}, h) && PrefixClosed(StrictSerializability{}, h)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickStrictSerializabilityWeakerThanOpacity(t *testing.T) {
	// Opacity implies strict serializability on every history.
	cfg := &quick.Config{MaxCount: 300}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomTMHistory(r, 2, 4+r.Intn(20))
		if Opaque(h) && !(StrictSerializability{}).Holds(h) {
			t.Logf("opaque but not strictly serializable: %s", h)
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
