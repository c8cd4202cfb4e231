package base

import (
	"testing"

	"repro/internal/quickseed"
)

// countAccessor stands in for the simulation runtime in unit tests: it
// counts atomic steps (every operation declares exactly one access) and
// records the values operations observe.
type countAccessor struct {
	steps    int
	observed []Value
}

func (c *countAccessor) Access(obj string, write bool) { c.steps++ }

func (c *countAccessor) Observe(v Value) { c.observed = append(c.observed, v) }

func TestRegister(t *testing.T) {
	s := &countAccessor{}
	r := NewRegister(new(Mem), "r", 0)
	if got := r.ReadW(s); got != 0 {
		t.Errorf("initial Read = %v, want 0", got)
	}
	r.WriteW(s, 42)
	if got := r.ReadW(s); got != 42 {
		t.Errorf("Read after Write = %v, want 42", got)
	}
	if s.steps != 3 {
		t.Errorf("steps = %d, want 3 (each op is one atomic step)", s.steps)
	}
	if r.Name() != "r" {
		t.Errorf("Name() = %q", r.Name())
	}
}

func TestDurableRegister(t *testing.T) {
	s := &countAccessor{}
	m := new(Mem)
	r := NewDurableRegister(m, "d", 0)
	if got := r.ReadW(s); got != 0 {
		t.Errorf("initial Read = %v, want 0", got)
	}
	r.WriteW(s, 7)
	if got, dur := r.ReadW(s), r.PeekDurable(); got != 7 || dur != 0 {
		t.Errorf("after Write: cache %v durable %v, want 7 and 0 (writes are volatile until flushed)", got, dur)
	}
	m.Wipe()
	if got := r.ReadW(s); got != 0 {
		t.Errorf("Read after unflushed crash = %v, want 0 (the write vanished)", got)
	}
	r.WriteW(s, 7)
	r.FlushW(s)
	if got, dur := r.Peek(), r.PeekDurable(); got != 7 || dur != 7 {
		t.Errorf("after Flush: cache %v durable %v, want 7 and 7", got, dur)
	}
	r.WriteW(s, 8)
	m.Wipe()
	if got := r.ReadW(s); got != 7 {
		t.Errorf("Read after crash = %v, want the flushed 7", got)
	}
	if s.steps != 8 {
		t.Errorf("steps = %d, want 8 (Wipe and the peeks are not steps)", s.steps)
	}
	if r.Name() != "d" {
		t.Errorf("Name() = %q", r.Name())
	}
}

func TestDurableRegisterSnapshot(t *testing.T) {
	s := &countAccessor{}
	m := new(Mem)
	r := NewDurableRegister(m, "d", 0)
	r.WriteW(s, 1)
	r.FlushW(s)
	r.WriteW(s, 2)
	snap := m.Snapshot()
	r.WriteW(s, 3)
	r.FlushW(s)
	m.Restore(snap)
	if got, dur := r.Peek(), r.PeekDurable(); got != 2 || dur != 1 {
		t.Errorf("after Restore: cache %v durable %v, want 2 and 1", got, dur)
	}
}

func TestCAS(t *testing.T) {
	s := &countAccessor{}
	c := NewCAS(new(Mem), "c", nil)
	if !c.CompareAndSwapW(s, nil, 1) {
		t.Error("CAS from initial nil should succeed")
	}
	if c.CompareAndSwapW(s, nil, 2) {
		t.Error("CAS with stale expected value should fail")
	}
	if got := c.ReadW(s); got != 1 {
		t.Errorf("Read = %v, want 1", got)
	}
	if prev := c.SwapW(s, 9); prev != 1 {
		t.Errorf("Swap returned %v, want previous value 1", prev)
	}
	if got := c.ReadW(s); got != 9 {
		t.Errorf("Read after Swap = %v, want 9", got)
	}
}

func TestCASPointerIdentity(t *testing.T) {
	// Composite states are stored as pointers to immutable records; CAS
	// compares identities, so two structurally equal records are distinct.
	type state struct{ v int }
	s := &countAccessor{}
	a, b := &state{1}, &state{1}
	c := NewCAS(new(Mem), "c", a)
	if c.CompareAndSwapW(s, b, &state{2}) {
		t.Error("CAS must compare pointer identity, not structure")
	}
	if !c.CompareAndSwapW(s, a, b) {
		t.Error("CAS with the installed pointer should succeed")
	}
}

func TestTAS(t *testing.T) {
	s := &countAccessor{}
	ts := NewTAS(new(Mem), "t")
	if ts.ReadW(s) {
		t.Error("TAS initially unset")
	}
	if !ts.TestAndSetW(s) {
		t.Error("first TestAndSet should win")
	}
	if ts.TestAndSetW(s) {
		t.Error("second TestAndSet should lose")
	}
	if !ts.ReadW(s) {
		t.Error("bit should be set")
	}
}

func TestFetchAdd(t *testing.T) {
	s := &countAccessor{}
	f := NewFetchAdd(new(Mem), "f", 10)
	if prev := f.AddW(s, 5); prev != 10 {
		t.Errorf("Add returned %d, want previous 10", prev)
	}
	if got := f.ReadW(s); got != 15 {
		t.Errorf("Read = %d, want 15", got)
	}
	if prev := f.AddW(s, -3); prev != 15 {
		t.Errorf("Add returned %d, want 15", prev)
	}
	if got := f.ReadW(s); got != 12 {
		t.Errorf("Read = %d, want 12", got)
	}
}

func TestSnapshot(t *testing.T) {
	s := &countAccessor{}
	sn := NewSnapshot(new(Mem), "R", 3, 0)
	if sn.Len() != 3 {
		t.Fatalf("Len = %d", sn.Len())
	}
	sn.UpdateW(s, 1, 7)
	got := sn.ScanW(s, nil)
	want := []Value{0, 7, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Scan = %v, want %v", got, want)
		}
	}
	// Scan returns a copy: mutating it must not affect the object.
	got[0] = 99
	if again := sn.ScanW(s, nil); again[0] != 0 {
		t.Error("Scan must return a defensive copy")
	}
	if s.steps != 3 {
		t.Errorf("steps = %d, want 3 (one update + two scans)", s.steps)
	}
}

func TestQuickRegisterLastWriteWins(t *testing.T) {
	f := func(writes []int) bool {
		s := &countAccessor{}
		r := NewRegister(new(Mem), "r", -1)
		for _, w := range writes {
			r.WriteW(s, w)
		}
		want := Value(-1)
		if len(writes) > 0 {
			want = writes[len(writes)-1]
		}
		return r.ReadW(s) == want
	}
	quickseed.Check(t, f, 0)
}

func TestQuickFetchAddSum(t *testing.T) {
	f := func(deltas []int8) bool {
		s := &countAccessor{}
		fa := NewFetchAdd(new(Mem), "f", 0)
		sum := 0
		for _, d := range deltas {
			fa.AddW(s, int(d))
			sum += int(d)
		}
		return fa.ReadW(s) == sum
	}
	quickseed.Check(t, f, 0)
}

func TestQuickCASLinearizesToSequence(t *testing.T) {
	// Applying a random sequence of CAS ops sequentially must behave like
	// the functional model.
	f := func(ops []struct{ Old, New uint8 }) bool {
		s := &countAccessor{}
		c := NewCAS(new(Mem), "c", 0)
		model := Value(0)
		for _, op := range ops {
			ok := c.CompareAndSwapW(s, int(op.Old), int(op.New))
			wantOK := model == int(op.Old)
			if wantOK {
				model = int(op.New)
			}
			if ok != wantOK {
				return false
			}
		}
		return c.ReadW(s) == model
	}
	quickseed.Check(t, f, 0)
}
