package base

import "testing"

// sinkRecorder implements StateSink by recording a canonical trace, so
// tests can assert what each base object declares without depending on
// the hash function.
type sinkRecorder struct {
	trace []Value
}

func (s *sinkRecorder) Str(v string) { s.trace = append(s.trace, "s:"+v) }
func (s *sinkRecorder) Val(v Value)  { s.trace = append(s.trace, v) }
func (s *sinkRecorder) Int(v int)    { s.trace = append(s.trace, v) }
func (s *sinkRecorder) Bool(v bool)  { s.trace = append(s.trace, v) }

func traceOf(fp interface{ Fingerprint(StateSink) }) []Value {
	s := &sinkRecorder{}
	fp.Fingerprint(s)
	return s.trace
}

func equalTraces(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFingerprintTracksState: every base object's fingerprint changes
// exactly with its state — equal state, equal trace; mutated state,
// different trace.
func TestFingerprintTracksState(t *testing.T) {
	st := &countAccessor{}

	r := NewRegister("r", 0)
	before := traceOf(r)
	if !equalTraces(before, traceOf(NewRegister("r", 0))) {
		t.Error("equal registers fingerprint differently")
	}
	r.WriteW(st, 7)
	if equalTraces(before, traceOf(r)) {
		t.Error("register write did not change the fingerprint")
	}

	c := NewCAS("c", nil)
	before = traceOf(c)
	c.CompareAndSwapW(st, nil, "x")
	if equalTraces(before, traceOf(c)) {
		t.Error("successful CAS did not change the fingerprint")
	}
	mid := traceOf(c)
	c.CompareAndSwapW(st, nil, "y") // fails: value is "x"
	if !equalTraces(mid, traceOf(c)) {
		t.Error("failed CAS changed the fingerprint")
	}

	ts := NewTAS("t")
	before = traceOf(ts)
	ts.TestAndSetW(st)
	if equalTraces(before, traceOf(ts)) {
		t.Error("test-and-set did not change the fingerprint")
	}
	ts.ResetW(st)
	if !equalTraces(before, traceOf(ts)) {
		t.Error("reset did not restore the fingerprint")
	}

	fa := NewFetchAdd("f", 10)
	before = traceOf(fa)
	fa.AddW(st, 5)
	if equalTraces(before, traceOf(fa)) {
		t.Error("fetch-add did not change the fingerprint")
	}

	sn := NewSnapshot("sn", 3, 0)
	before = traceOf(sn)
	sn.UpdateW(st, 1, 9)
	after := traceOf(sn)
	if equalTraces(before, after) {
		t.Error("snapshot update did not change the fingerprint")
	}
	sn2 := NewSnapshot("sn", 3, 0)
	sn2.UpdateW(st, 2, 9) // same value, different slot
	if equalTraces(after, traceOf(sn2)) {
		t.Error("snapshot fingerprints ignore the slot index")
	}
}

// TestFingerprintNamesDisambiguate: two objects of the same kind and
// value but different names must not fingerprint equal — composite
// implementations rely on names to keep their layout canonical.
func TestFingerprintNamesDisambiguate(t *testing.T) {
	if equalTraces(traceOf(NewRegister("a", 1)), traceOf(NewRegister("b", 1))) {
		t.Error("register name not part of the fingerprint")
	}
}

// TestReadsObserve: every value-returning base-object operation reports
// its result to the observe hook, so mid-operation local state reaches
// the state fingerprint.
func TestReadsObserve(t *testing.T) {
	o := &countAccessor{}
	r := NewRegister("r", 4)
	if r.ReadW(o); len(o.observed) != 1 || o.observed[0] != 4 {
		t.Errorf("register read observed %v, want [4]", o.observed)
	}

	o = &countAccessor{}
	c := NewCAS("c", 1)
	c.ReadW(o)
	c.CompareAndSwapW(o, 1, 2) // success → observes true
	c.CompareAndSwapW(o, 1, 3) // failure → observes false
	c.SwapW(o, 9)
	want := []Value{1, true, false, 2}
	if !equalTraces(o.observed, want) {
		t.Errorf("CAS operations observed %v, want %v", o.observed, want)
	}

	o = &countAccessor{}
	ts := NewTAS("t")
	ts.TestAndSetW(o)
	ts.TestAndSetW(o)
	ts.ReadW(o)
	if !equalTraces(o.observed, []Value{true, false, true}) {
		t.Errorf("TAS operations observed %v, want [true false true]", o.observed)
	}

	o = &countAccessor{}
	fa := NewFetchAdd("f", 3)
	fa.AddW(o, 2)
	fa.ReadW(o)
	if !equalTraces(o.observed, []Value{3, 5}) {
		t.Errorf("fetch-add operations observed %v, want [3 5]", o.observed)
	}

	o = &countAccessor{}
	sn := NewSnapshot("sn", 2, 0)
	sn.UpdateW(o, 1, 8)
	sn.ScanW(o, nil)
	if !equalTraces(o.observed, []Value{0, 8}) {
		t.Errorf("snapshot scan observed %v, want [0 8]", o.observed)
	}
}
