package safety

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/history"
)

// TestSeenSetPastThirtyTwoEntries: the closure search's seen set must
// tell configurations apart by value however many it already holds. The
// set used to spill past 32 entries into a map keyed by a %v rendering
// of the promises beyond the third, which equated promise sets such as
// {3:"a;4=b", 5:"c"} and {3:"a", 4:"b;5=c"}, or 1 and "1", dropping the
// second configuration as already seen — a lost configuration can turn a
// linearizable history into a false violation. Configurations now hold
// table ids, so such sets must intern apart, and one set must intern
// alike whatever order its promises were inserted in.
func TestSeenSetPastThirtyTwoEntries(t *testing.T) {
	tab := newLinTable(RegisterSpec{})
	sc := &linScratch{}
	for i := 0; i < 32; i++ {
		if sc.markOf(linCfg{mask: uint64(i) << 8, st: tab.state("filler")}) {
			t.Fatalf("filler configuration %d reported seen", i)
		}
	}
	type promise struct {
		slot int
		val  history.Value
	}
	set := func(ps ...promise) (fwd, rev uint32) {
		for i := range ps {
			fwd = tab.edit(fwd, ps[i].slot, tab.vals.id(ps[i].val))
			p := ps[len(ps)-1-i]
			rev = tab.edit(rev, p.slot, tab.vals.id(p.val))
		}
		return fwd, rev
	}
	head := []promise{{0, "x"}, {1, "x"}, {2, "x"}}
	with := func(tail ...promise) []promise { return append(head[:3:3], tail...) }
	pairs := [][2][]promise{
		{with(promise{3, "a;4=b"}, promise{5, "c"}), with(promise{3, "a"}, promise{4, "b;5=c"})},
		{with(promise{3, 1}), with(promise{3, "1"})},
	}
	st := tab.state("st")
	for i, pair := range pairs {
		mask := uint64(1)<<40 | uint64(i)
		var first uint32
		for j, proms := range pair {
			fwd, rev := set(proms...)
			if fwd != rev {
				t.Errorf("pair %d: set %d interns as %d inserted forward, %d backward", i, j, fwd, rev)
			}
			if sc.markOf(linCfg{mask: mask, st: st, proms: fwd}) {
				t.Errorf("pair %d: configuration %d reported seen: %v", i, j, proms)
			}
			if j == 0 {
				first = fwd
			}
		}
		if !sc.markOf(linCfg{mask: mask, st: st, proms: first}) {
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
	f := m.Fork(nil).(*LinMonitor)
	// The parent completes the read and reuses slot 0 for a write of 5.
	step(m, history.Response(2, "read", 1), history.Invoke(3, "write", 5))
	name := func(m *LinMonitor) string { return m.tab.ops.items[m.slots[0].op].name }
	if name(m) != "write" || name(f) != "read" {
		t.Fatalf("slot 0 after reuse: parent %q, fork %q; want write, read", name(m), name(f))
	}
	// The fork writes 7 concurrently with its pending read, which may
	// then return 7; the parent's read returned 1 before the write of 5.
	step(f, history.Invoke(3, "write", 7), history.Response(3, "write", history.OK), history.Response(2, "read", 7))
	step(m, history.Response(3, "write", history.OK), history.Invoke(1, "read", nil), history.Response(1, "read", 5))
	if g := m.Fork(nil); g.Step(history.Invoke(2, "read", nil)) && g.Step(history.Response(2, "read", 7)) {
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

// TestLinMonitorPin pins the linearizability monitors step for step:
// for every specification — register, compare-and-swap, queue, stack,
// counter and snapshot — plain and strict, 250 histories decoded by
// fuzzHistory from random bytes, every other one linearizable by
// construction and the rest arbitrary, crashes and recoveries included,
// up to four processes. At every prefix the Step result, the number of
// configurations and the StateDigest of the monitor, and the same of a
// fork taken at a random point and stepped alongside it, are folded
// into one word per specification and mode. The words were recorded
// with the monitor that kept spec states, responses and promise slices
// as interface values and re-applied the specification on every step,
// so an interned representation must reproduce its verdicts,
// configuration sets and digests exactly.
func TestLinMonitorPin(t *testing.T) {
	specs := []SeqSpec{
		RegisterSpec{Initial: 0}, CASSpec{Initial: 0}, QueueSpec{}, StackSpec{},
		CounterSpec{}, SnapshotSpec{N: 4, Initial: 0},
	}
	want := map[string]uint64{
		"register": 141797112718269051, "strict-register": 17950572017379357753,
		"cas": 12432036404761331788, "strict-cas": 7873726056385121880,
		"queue": 7200005970580590367, "strict-queue": 14444042963108981522,
		"stack": 2708554222512823271, "strict-stack": 1991170853132287410,
		"counter": 9634774689478865691, "strict-counter": 280761970107584587,
		"snapshot": 11185677877907786574, "strict-snapshot": 11077394488195733567,
	}
	for _, spec := range specs {
		for _, strict := range []bool{false, true} {
			name := spec.Name()
			spawn := NewLinMonitor
			if strict {
				name, spawn = "strict-"+name, NewStrictLinMonitor
			}
			r := rand.New(rand.NewSource(23))
			sum := history.DigestSeed()
			fold := func(ok bool, m *LinMonitor) {
				d, dok := m.StateDigest()
				sum = history.DigestWord(sum, d)
				sum = history.DigestWord(sum, uint64(len(m.configs)))
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
			// Each fork overwrites the previous history's monitor, which
			// holds another branch's configurations, slots and verdict.
			var prev *LinMonitor
			for i := 0; i < 250; i++ {
				buf := make([]byte, 48+r.Intn(64))
				for k := range buf {
					buf[k] = byte(r.Intn(256))
				}
				h := fuzzHistory(&fuzzBytes{b: buf}, 1+r.Intn(4), 40, spec, i%2 == 1)
				m := spawn(spec)
				forkAt := r.Intn(len(h) + 1)
				var fork *LinMonitor
				for k, e := range h {
					if k == forkAt {
						fork = m.Fork(prev).(*LinMonitor)
					}
					fold(m.Step(e), m)
					if fork != nil {
						fold(fork.Step(e), fork)
					}
				}
				if !m.OK() {
					fails++
				}
				prev = m
			}
			if sum != want[name] {
				t.Errorf("%s: pinned word %d, want %d (%d of 250 histories violate)", name, sum, want[name], fails)
			}
		}
	}
}

// TestLinMonitorForkIntoUsed forks a monitor, after a random prefix,
// into a fork of the same parent that went on through another branch,
// and steps it beside a fresh fork through the parent's own
// continuation: every Step result, StateDigest and configuration count
// must agree. The destinations cover more configurations than the
// parent holds, other pending slots and a failed verdict.
func TestLinMonitorForkIntoUsed(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var moreConfigs, otherSlots, failed int
	for _, spec := range []SeqSpec{RegisterSpec{Initial: 0}, QueueSpec{}} {
		for i := 0; i < 200; i++ {
			buf := make([]byte, 48+r.Intn(64))
			for k := range buf {
				buf[k] = byte(r.Intn(256))
			}
			h := fuzzHistory(&fuzzBytes{b: buf}, 1+r.Intn(3), 30, spec, i%2 == 1)
			at := r.Intn(len(h) + 1)
			spawn := NewLinMonitor
			if i%3 == 0 {
				spawn = NewStrictLinMonitor
			}
			m := spawn(spec)
			for _, e := range h[:at] {
				m.Step(e)
			}
			used := m.Fork(nil).(*LinMonitor)
			for _, e := range altSuffix(r, h[at:]) {
				used.Step(e)
			}
			if len(used.configs) > len(m.configs) {
				moreConfigs++
			}
			if used.used != m.used {
				otherSlots++
			}
			if !used.OK() {
				failed++
			}
			fresh := m.Fork(nil).(*LinMonitor)
			if m.Fork(used) != Monitor(used) {
				t.Fatal("Fork allocated instead of overwriting its LinMonitor destination")
			}
			for k, e := range h[at:] {
				fok, uok := fresh.Step(e), used.Step(e)
				fd, fdok := fresh.StateDigest()
				ud, udok := used.StateDigest()
				if fok != uok || fd != ud || fdok != udok || len(fresh.configs) != len(used.configs) {
					t.Fatalf("%s at event %d of %s (forked at %d): fresh fork %v/%d/%v with %d configurations, reused destination %v/%d/%v with %d",
						spec.Name(), at+k+1, h, at, fok, fd, fdok, len(fresh.configs), uok, ud, udok, len(used.configs))
				}
			}
		}
	}
	if moreConfigs == 0 || otherSlots == 0 || failed == 0 {
		t.Fatalf("destinations with more configurations: %d, other pending slots: %d, failed: %d; want each case covered",
			moreConfigs, otherSlots, failed)
	}
}

// TestLinMonitorForksStepConcurrently: forks of one monitor share its
// table, and exploration steps them on several goroutines at once. Four
// goroutines each step a fork of one parent through a different
// continuation of the parent's prefix, taking, stepping and releasing a
// fork of their own midway; every Step result and StateDigest must
// equal what a fresh monitor, with a table of its own, reports on the
// same history. Run under -race, this certifies the table's locking.
func TestLinMonitorForksStepConcurrently(t *testing.T) {
	type judged struct {
		ok     bool
		digest uint64
	}
	replay := func(spawn func() *LinMonitor, h history.History) []judged {
		m := spawn()
		out := make([]judged, len(h))
		for i, e := range h {
			ok := m.Step(e)
			d, _ := m.StateDigest()
			out[i] = judged{ok, d}
		}
		return out
	}
	for _, spec := range []SeqSpec{RegisterSpec{Initial: 0}, CASSpec{Initial: 0}, QueueSpec{}, StackSpec{}} {
		for _, strict := range []bool{false, true} {
			spawn := func() *LinMonitor { return NewLinMonitor(spec) }
			if strict {
				spawn = func() *LinMonitor { return NewStrictLinMonitor(spec) }
			}
			r := rand.New(rand.NewSource(41))
			for i := 0; i < 20; i++ {
				buf := make([]byte, 96)
				for k := range buf {
					buf[k] = byte(r.Intn(256))
				}
				h := fuzzHistory(&fuzzBytes{b: buf}, 3, 30, spec, i%2 == 0)
				at := r.Intn(len(h) + 1)
				const goroutines = 4
				hs := make([]history.History, goroutines)
				want := make([][]judged, goroutines)
				for g := range hs {
					hs[g] = append(h[:at:at], altSuffix(r, h[at:])...)
					want[g] = replay(spawn, hs[g])
				}
				parent := spawn()
				for _, e := range h[:at] {
					parent.Step(e)
				}
				var wg sync.WaitGroup
				errs := make([]string, goroutines)
				for g := 0; g < goroutines; g++ {
					fork := parent.Fork(nil).(*LinMonitor)
					wg.Add(1)
					go func(g int, m *LinMonitor) {
						defer wg.Done()
						var sub *LinMonitor
						for k := at; k < len(hs[g]); k++ {
							if k == (at+len(hs[g]))/2 {
								sub = m.Fork(nil).(*LinMonitor)
							}
							for _, mon := range []*LinMonitor{m, sub} {
								if mon == nil {
									continue
								}
								ok := mon.Step(hs[g][k])
								d, _ := mon.StateDigest()
								if (judged{ok, d}) != want[g][k] && errs[g] == "" {
									errs[g] = hs[g].String()
								}
							}
						}
					}(g, fork)
				}
				wg.Wait()
				for g, h := range errs {
					if h != "" {
						t.Fatalf("%s strict=%v: goroutine %d's fork disagrees with a fresh monitor on %s (forked at %d)", spec.Name(), strict, g, h, at)
					}
				}
			}
		}
	}
}

// TestLinMonitorNonComparableValues: arguments, responses and spec
// states whose dynamic type is not comparable cannot key the monitor's
// table. Each gets a fresh id, equal to no other, so the monitor judges
// these histories as the monitor did before it interned anything —
// which compared such values only against values of other types —
// without panicking.
func TestLinMonitorNonComparableValues(t *testing.T) {
	type box struct{ v any }
	for _, c := range []struct {
		v    any
		want bool
	}{
		{nil, true}, {1, true}, {"x", true}, {1.5, true}, {box{nil}, true}, {[2]any{1, "a"}, true},
		{CASArg{Old: 1, New: 2}, true}, {CASArg{Old: []int{1}, New: 2}, false}, {[]int{1}, false},
		{box{[]int{}}, false}, {box{box{map[int]int{}}}, false}, {[2]any{1, []int{}}, false},
	} {
		if got := hashable(c.v); got != c.want {
			t.Errorf("hashable(%#v) = %v, want %v", c.v, got, c.want)
		}
	}
	for _, tc := range []struct {
		spec SeqSpec
		h    history.History
		want bool
	}{
		// A slice written, then overwritten and read back.
		{RegisterSpec{Initial: 0}, history.History{
			history.Invoke(1, "write", []int{1}), history.Response(1, "write", history.OK),
			history.Invoke(2, "write", 2), history.Invoke(1, "write", box{[]int{2}}),
			history.Response(2, "write", history.OK), history.Response(1, "write", history.OK),
			history.Invoke(1, "write", 3), history.Response(1, "write", history.OK),
			history.Invoke(2, "read", nil), history.Response(2, "read", 3),
		}, true},
		// A read answered by a slice no int state can produce.
		{RegisterSpec{Initial: 0}, history.History{
			history.Invoke(1, "read", nil), history.Response(1, "read", []int{0}),
		}, false},
		// A compare-and-swap expecting a slice, which no int state equals.
		{CASSpec{Initial: 0}, history.History{
			history.Invoke(1, "cas", CASArg{Old: []int{0}, New: 1}), history.Invoke(2, "read", nil),
			history.Response(1, "cas", false), history.Response(2, "read", 0),
		}, true},
	} {
		for _, spawn := range []func(SeqSpec) *LinMonitor{NewLinMonitor, NewStrictLinMonitor} {
			m := spawn(tc.spec)
			ok := true
			for _, e := range tc.h {
				ok = m.Step(e)
				m.StateDigest()
				m.Fork(nil).Step(e)
			}
			if ok != tc.want {
				t.Errorf("strict=%v: verdict %v on %s, want %v", m.strict, ok, tc.h, tc.want)
			}
		}
	}
}
