package safety

import (
	"testing"

	"repro/internal/history"
)

// TestSeenSetPastThirtyTwoEntries: the closure search's seen set must
// tell configurations apart by value however many it already holds. The
// set used to spill past 32 entries into a map keyed by a %v rendering
// of the promises beyond the third, which equated promise sets such as
// {3:"a;4=b", 5:"c"} and {3:"a", 4:"b;5=c"}, or 1 and "1", dropping the
// second configuration as already seen — a lost configuration can turn a
// linearizable history into a false violation.
func TestSeenSetPastThirtyTwoEntries(t *testing.T) {
	sc := &linScratch{}
	for i := 0; i < 32; i++ {
		if sc.markOf(uint64(i)<<8, "filler", nil) {
			t.Fatalf("filler configuration %d reported seen", i)
		}
	}
	head := []promise{{0, "x"}, {1, "x"}, {2, "x"}}
	with := func(tail ...promise) []promise { return append(head[:3:3], tail...) }
	pairs := [][2][]promise{
		{with(promise{3, "a;4=b"}, promise{5, "c"}), with(promise{3, "a"}, promise{4, "b;5=c"})},
		{with(promise{3, 1}), with(promise{3, "1"})},
	}
	for i, pair := range pairs {
		mask := uint64(1)<<40 | uint64(i)
		for j, proms := range pair {
			if sc.markOf(mask, "st", proms) {
				t.Errorf("pair %d: configuration %d reported seen: %v", i, j, proms)
			}
		}
		if !sc.markOf(mask, "st", pair[0]) {
			t.Errorf("pair %d: re-marking a recorded configuration reported fresh", i)
		}
	}
}

// TestLinMonitorForkSharesOps pins the copy-on-append fork discipline:
// a fork and its parent share the ops backing until either appends, and
// appends on one side never become visible on the other.
func TestLinMonitorForkSharesOps(t *testing.T) {
	m := NewLinMonitor(RegisterSpec{Initial: 0})
	step := func(mon Monitor, evs ...history.Event) {
		for _, e := range evs {
			if !mon.Step(e) {
				t.Fatalf("unexpected violation at %+v", e)
			}
		}
	}
	step(m,
		history.Invoke(1, "write", 1), history.Response(1, "write", history.OK),
		history.Invoke(2, "read", nil))
	f := m.Fork().(*LinMonitor)
	// Diverge: parent completes the read with 1, the fork with a write
	// by proc 3 first. Each side appends to ops independently.
	step(m, history.Response(2, "read", 1))
	step(f, history.Invoke(3, "write", 5), history.Response(3, "write", history.OK), history.Response(2, "read", 5))
	if !m.OK() || !f.OK() {
		t.Fatal("both linearizable branches must stay OK")
	}
	// The fork must not have seen the parent's appends or vice versa.
	if len(m.ops) != 2 || len(f.ops) != 3 {
		t.Fatalf("ops leaked across the fork: parent %d ops, fork %d ops", len(m.ops), len(f.ops))
	}
	// A non-linearizable continuation still fails on the fork.
	step(f, history.Invoke(1, "read", nil))
	if f.Step(history.Response(1, "read", 99)) {
		t.Fatal("fork accepted a read of a never-written value")
	}
}
