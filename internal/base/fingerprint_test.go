package base

import (
	"testing"

	"repro/internal/history"
)

// foldOf returns the Fold digest of m.
func foldOf(m *Mem) uint64 {
	f := history.NewFingerprinter()
	m.Fold(f)
	return f.Sum()
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

// TestFingerprintTracksState: every base object's fold changes exactly
// with its state — equal state, equal digest; mutated state, different
// digest.
func TestFingerprintTracksState(t *testing.T) {
	st := &countAccessor{}

	m := new(Mem)
	r := NewRegister(m, "r", 0)
	before := foldOf(m)
	other := new(Mem)
	NewRegister(other, "r", 0)
	if before != foldOf(other) {
		t.Error("equal registers fingerprint differently")
	}
	r.WriteW(st, 7)
	if before == foldOf(m) {
		t.Error("register write did not change the fingerprint")
	}

	m = new(Mem)
	c := NewCAS(m, "c", nil)
	before = foldOf(m)
	c.CompareAndSwapW(st, nil, "x")
	if before == foldOf(m) {
		t.Error("successful CAS did not change the fingerprint")
	}
	mid := foldOf(m)
	c.CompareAndSwapW(st, nil, "y") // fails: value is "x"
	if mid != foldOf(m) {
		t.Error("failed CAS changed the fingerprint")
	}

	m = new(Mem)
	ts := NewTAS(m, "t")
	before = foldOf(m)
	ts.TestAndSetW(st)
	if before == foldOf(m) {
		t.Error("test-and-set did not change the fingerprint")
	}
	ts.ResetW(st)
	if before != foldOf(m) {
		t.Error("reset did not restore the fingerprint")
	}

	m = new(Mem)
	fa := NewFetchAdd(m, "f", 10)
	before = foldOf(m)
	fa.AddW(st, 5)
	if before == foldOf(m) {
		t.Error("fetch-add did not change the fingerprint")
	}

	m = new(Mem)
	sn := NewSnapshot(m, "sn", 3, 0)
	before = foldOf(m)
	sn.UpdateW(st, 1, 9)
	after := foldOf(m)
	if before == after {
		t.Error("snapshot update did not change the fingerprint")
	}
	m2 := new(Mem)
	NewSnapshot(m2, "sn", 3, 0).UpdateW(st, 2, 9) // same value, different slot
	if after == foldOf(m2) {
		t.Error("snapshot fingerprints ignore the slot index")
	}

	m = new(Mem)
	d := NewDurableRegister(m, "d", 0)
	before = foldOf(m)
	d.WriteW(st, 1)
	cached := foldOf(m)
	if before == cached {
		t.Error("durable write did not change the fingerprint")
	}
	d.FlushW(st)
	if cached == foldOf(m) {
		t.Error("flush did not change the fingerprint")
	}
}

// TestFingerprintNamesDisambiguate: two objects of the same kind and
// value but different names must not fingerprint equal — composite
// implementations rely on names to keep their layout canonical.
func TestFingerprintNamesDisambiguate(t *testing.T) {
	a, b := new(Mem), new(Mem)
	NewRegister(a, "a", 1)
	NewRegister(b, "b", 1)
	if foldOf(a) == foldOf(b) {
		t.Error("register name not part of the fingerprint")
	}
}

// TestReadsObserve: every value-returning base-object operation reports
// its result to the observe hook, so mid-operation local state reaches
// the state fingerprint.
func TestReadsObserve(t *testing.T) {
	o := &countAccessor{}
	r := NewRegister(new(Mem), "r", 4)
	if r.ReadW(o); len(o.observed) != 1 || o.observed[0] != 4 {
		t.Errorf("register read observed %v, want [4]", o.observed)
	}

	o = &countAccessor{}
	c := NewCAS(new(Mem), "c", 1)
	c.ReadW(o)
	c.CompareAndSwapW(o, 1, 2) // success → observes true
	c.CompareAndSwapW(o, 1, 3) // failure → observes false
	c.SwapW(o, 9)
	want := []Value{1, true, false, 2}
	if !equalTraces(o.observed, want) {
		t.Errorf("CAS operations observed %v, want %v", o.observed, want)
	}

	o = &countAccessor{}
	ts := NewTAS(new(Mem), "t")
	ts.TestAndSetW(o)
	ts.TestAndSetW(o)
	ts.ReadW(o)
	if !equalTraces(o.observed, []Value{true, false, true}) {
		t.Errorf("TAS operations observed %v, want [true false true]", o.observed)
	}

	o = &countAccessor{}
	fa := NewFetchAdd(new(Mem), "f", 3)
	fa.AddW(o, 2)
	fa.ReadW(o)
	if !equalTraces(o.observed, []Value{3, 5}) {
		t.Errorf("fetch-add operations observed %v, want [3 5]", o.observed)
	}

	o = &countAccessor{}
	sn := NewSnapshot(new(Mem), "sn", 2, 0)
	sn.UpdateW(o, 1, 8)
	sn.ScanW(o, nil)
	if !equalTraces(o.observed, []Value{0, 8}) {
		t.Errorf("snapshot scan observed %v, want [0 8]", o.observed)
	}
}
