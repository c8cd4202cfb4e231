package safety

import (
	"strings"
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

// TestLinMonitorForkSlotReuse pins the fork discipline of the slot
// table: after a fork the parent frees a slot and reuses it for a new
// operation, while the fork still resolves its own operation in that
// slot. Each side judges its own history.
func TestLinMonitorForkSlotReuse(t *testing.T) {
	m := NewLinMonitor(RegisterSpec{Initial: 0})
	step := func(mon Monitor, evs ...history.Event) {
		t.Helper()
		for _, e := range evs {
			if !mon.Step(e) {
				t.Fatalf("unexpected violation at %+v", e)
			}
		}
	}
	step(m, history.Invoke(1, "write", 1), history.Response(1, "write", history.OK))
	step(m, history.Invoke(2, "read", nil)) // slot 0
	f := m.Fork().(*LinMonitor)
	// The parent completes the read and reuses slot 0 for a write of 5.
	step(m, history.Response(2, "read", 1), history.Invoke(3, "write", 5))
	if m.slots[0].name != "write" || f.slots[0].name != "read" {
		t.Fatalf("slot 0 after reuse: parent %q, fork %q; want write, read", m.slots[0].name, f.slots[0].name)
	}
	// The fork writes 7 concurrently with its pending read, which may
	// then return 7; the parent's read returned 1 before the write of 5.
	step(f, history.Invoke(3, "write", 7), history.Response(3, "write", history.OK), history.Response(2, "read", 7))
	step(m, history.Response(3, "write", history.OK), history.Invoke(1, "read", nil), history.Response(1, "read", 5))
	if g := m.Fork(); g.Step(history.Invoke(2, "read", nil)) && g.Step(history.Response(2, "read", 7)) {
		t.Error("parent accepted a read of the fork's write")
	}
	step(f, history.Invoke(1, "read", nil))
	if f.Step(history.Response(1, "read", 5)) {
		t.Error("fork accepted a read of the parent's write")
	}
	if !m.OK() {
		t.Error("parent's verdict changed by the fork")
	}
}

// TestLinMonitorPendingLimit: mask width bounds how many operations are
// pending at once. The 64th concurrent invocation is accepted; the 65th
// panics with a message naming the limit instead of returning a
// verdict.
func TestLinMonitorPendingLimit(t *testing.T) {
	invoke := func(n int) (msg any) {
		defer func() { msg = recover() }()
		m := NewLinMonitor(RegisterSpec{Initial: 0})
		for p := 1; p <= n; p++ {
			if !m.Step(history.Invoke(p, "write", p)) {
				t.Fatalf("invocation %d reported a violation", p)
			}
		}
		return nil
	}
	if msg := invoke(maxPendingOps); msg != nil {
		t.Fatalf("%d pending operations: panic %v", maxPendingOps, msg)
	}
	msg, _ := invoke(maxPendingOps + 1).(string)
	if !strings.Contains(msg, "more than 64 operations pending at once") {
		t.Fatalf("%d pending operations: panic %q, want the named limit", maxPendingOps+1, msg)
	}
}

// TestStrictCrashKeepsConfigurationsDistinct: a strict crash frees the
// crashed operation's slot, so a configuration that linearized it and
// one where it vanished become equal when they agree on the rest — here
// a write of the register's initial value. The set keeps one of them.
func TestStrictCrashKeepsConfigurationsDistinct(t *testing.T) {
	m := NewStrictLinMonitor(RegisterSpec{Initial: 0})
	m.Step(history.Invoke(1, "write", 0))
	m.Step(history.Crash(1))
	if len(m.configs) != 1 {
		t.Fatalf("%d configurations after the crash, want 1: %+v", len(m.configs), m.configs)
	}
}
