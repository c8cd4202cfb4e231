package sim

import (
	"testing"

	"repro/internal/base"
	"repro/internal/history"
)

// fpObject is a two-register object with the fingerprint hook: each
// process writes its own register, so different schedules can reach the
// identical state.
type fpObject struct {
	base.Mem
	a, b *base.Register
}

func newFPObject() *fpObject {
	o := &fpObject{}
	o.a = base.NewRegister(&o.Mem, "a", 0)
	o.b = base.NewRegister(&o.Mem, "b", 0)
	return o
}

func (o *fpObject) Apply(p *Proc, inv Invocation) (v history.Value) {
	r := o.b
	if p.ID() == 1 {
		r = o.a
	}
	switch inv.Op {
	case "write":
		p.Exec("write", func() { r.WriteW(p, inv.Arg) })
		v = history.OK
	case "read":
		p.Exec("read", func() { v = r.ReadW(p) })
	}
	return v
}

func (o *fpObject) Fingerprint(f *Fingerprinter) { o.Fold(f) }

// fpRun replays the process sequence against a fresh fpObject with
// fingerprinting on.
func fpRun(t *testing.T, procs []int, script map[int][]Invocation) *Result {
	t.Helper()
	res := Run(Config{
		Procs:       2,
		Object:      newFPObject(),
		Env:         Script(script),
		Scheduler:   FixedProcs(procs),
		Fingerprint: true,
	})
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	if !res.Fingerprinted {
		t.Fatal("run did not fingerprint despite Config.Fingerprint and the object hook")
	}
	return res
}

// TestFingerprintSameStateAcrossSchedules: two different interleavings
// that reach the identical configuration — same register contents, both
// processes done — must produce the identical fingerprint.
func TestFingerprintSameStateAcrossSchedules(t *testing.T) {
	script := map[int][]Invocation{
		1: {{Op: "write", Arg: 7}},
		2: {{Op: "write", Arg: 9}},
	}
	// p1 fully, then p2 — versus interleaved — versus p2 first.
	orders := [][]int{
		{1, 1, 2, 2},
		{1, 2, 1, 2},
		{2, 2, 1, 1},
		{2, 1, 2, 1},
	}
	want := fpRun(t, orders[0], script).Fingerprint
	for _, o := range orders[1:] {
		if got := fpRun(t, o, script).Fingerprint; got != want {
			t.Errorf("order %v: fingerprint %#x != %#x (same final state must fingerprint equal)", o, got, want)
		}
	}
}

// TestFingerprintDistinguishesState: different register contents, a
// different pending invocation, or a crash must all change the
// fingerprint.
func TestFingerprintDistinguishesState(t *testing.T) {
	base := fpRun(t, []int{1, 1, 2, 2}, map[int][]Invocation{
		1: {{Op: "write", Arg: 7}},
		2: {{Op: "write", Arg: 9}},
	})
	differentValue := fpRun(t, []int{1, 1, 2, 2}, map[int][]Invocation{
		1: {{Op: "write", Arg: 8}},
		2: {{Op: "write", Arg: 9}},
	})
	if base.Fingerprint == differentValue.Fingerprint {
		t.Error("different register contents fingerprint equal")
	}
	midOperation := fpRun(t, []int{1, 1, 2}, map[int][]Invocation{
		1: {{Op: "write", Arg: 7}},
		2: {{Op: "write", Arg: 9}},
	})
	if base.Fingerprint == midOperation.Fingerprint {
		t.Error("pending invocation fingerprints equal to completed one")
	}
	differentArg := fpRun(t, []int{1, 1, 2}, map[int][]Invocation{
		1: {{Op: "write", Arg: 7}},
		2: {{Op: "write", Arg: 10}},
	})
	if midOperation.Fingerprint == differentArg.Fingerprint {
		t.Error("different pending arguments fingerprint equal")
	}
}

// TestFingerprintObservations: two configurations that agree on object
// state, program counters, pending invocations and crash set but
// differ in what a process READ mid-operation must fingerprint
// differently — the read value is live local state that determines the
// process's next move (the stale-test-and-set distinction DESIGN.md's
// soundness argument leans on).
func TestFingerprintObservations(t *testing.T) {
	obsOf := func(procs []int) uint64 {
		res := Run(Config{
			Procs:       2,
			Object:      newSharedRegObject(),
			Env:         Script(map[int][]Invocation{1: {{Op: "read"}}, 2: {{Op: "write", Arg: 5}, {Op: "write", Arg: 0}}}),
			Scheduler:   FixedProcs(procs),
			Fingerprint: true,
		})
		if res.Err != nil || !res.Fingerprinted {
			t.Fatalf("run failed: %v (fingerprinted=%v)", res.Err, res.Fingerprinted)
		}
		return res.Fingerprint
	}
	// p1's read step runs while the register is 0 (before p2's writes)
	// versus while it is 5 (between them); p2 then restores 0, so both
	// runs end with the identical object state, statuses and counters.
	before := obsOf([]int{1, 1, 2, 2, 2, 2})
	during := obsOf([]int{2, 2, 1, 1, 2, 2})
	if before == during {
		t.Error("different mid-operation observations fingerprint equal")
	}
}

// sharedRegObject reads/writes one shared register; "read" performs a
// probe step (the observation) and then parks the process, keeping the
// operation pending so the observed value stays live local state.
type sharedRegObject struct {
	base.Mem
	r *base.Register
}

func newSharedRegObject() *sharedRegObject {
	o := &sharedRegObject{}
	o.r = base.NewRegister(&o.Mem, "s", 0)
	return o
}

func (o *sharedRegObject) Apply(p *Proc, inv Invocation) history.Value {
	switch inv.Op {
	case "read":
		var v history.Value
		p.Exec("read", func() { v = o.r.ReadW(p) })
		p.Block()
		return v
	case "write":
		p.Exec("write", func() { o.r.WriteW(p, inv.Arg) })
		return history.OK
	}
	return nil
}

func (o *sharedRegObject) Fingerprint(f *Fingerprinter) { o.Fold(f) }

// TestFingerprintOffByDefault: without Config.Fingerprint the result
// carries no fingerprint even when the object has the hook.
func TestFingerprintOffByDefault(t *testing.T) {
	res := Run(Config{
		Procs:     2,
		Object:    newFPObject(),
		Env:       Script(map[int][]Invocation{1: {{Op: "write", Arg: 1}}}),
		Scheduler: FixedProcs([]int{1, 1}),
	})
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	if res.Fingerprinted {
		t.Error("Fingerprinted set without Config.Fingerprint")
	}
}

// TestFingerprintLazyArgPoisons: a LazyArg resolves against the
// scheduling-time view, so no configuration fingerprint can stand in
// for the process's local state; the run must refuse to fingerprint.
func TestFingerprintLazyArgPoisons(t *testing.T) {
	res := Run(Config{
		Procs:  2,
		Object: newFPObject(),
		Env: Script(map[int][]Invocation{
			1: {{Op: "write", Arg: LazyArg(func(v *View) history.Value { return len(v.H) })}},
		}),
		Scheduler:   FixedProcs([]int{1, 1}),
		Fingerprint: true,
	})
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	if res.Fingerprinted {
		t.Error("LazyArg run still fingerprinted; lazy resolution must poison the fingerprint")
	}
}

// TestFingerprintNestedPointerPoisons: fmt only dereferences a pointer
// at the top level, so a value carrying a pointer below the top level
// would encode raw addresses — nondeterministic across runs and, with
// allocator reuse, collidable across distinct states. Val must detect
// such values and poison the fingerprint instead of encoding them.
func TestFingerprintNestedPointerPoisons(t *testing.T) {
	type inner struct{ n int }
	type nested struct{ p *inner }
	type record struct{ a, b int }

	cases := []struct {
		name   string
		v      history.Value
		poison bool
	}{
		{"int", 7, false},
		{"string", "x", false},
		{"comparable struct", record{1, 2}, false},
		{"top-level pointer to struct", &record{1, 2}, false},
		{"slice of scalars", []int{1, 2}, false},
		{"map of scalars", map[string]int{"a": 1}, false},
		{"slice of interface-wrapped scalars", []history.Value{1, "x"}, false},
		{"struct with nil pointer field", nested{}, false},
		{"top-level pointer to scalar", new(int), true},
		{"struct with pointer field", nested{p: &inner{n: 3}}, true},
		{"pointer to struct with pointer field", &nested{p: &inner{n: 4}}, true},
		{"slice of pointers", []*inner{{n: 1}}, true},
		{"struct with interface holding pointer", struct{ v any }{v: new(int)}, true},
		{"func", func() {}, true},
		{"stringer", fpStringer{n: 1}, true},
	}
	for _, tc := range cases {
		f := history.NewFingerprinter()
		f.Val(tc.v)
		if f.Poisoned() != tc.poison {
			t.Errorf("%s: Poisoned() = %v, want %v", tc.name, f.Poisoned(), tc.poison)
		}
	}
}

// TestFingerprintValInjective: Val's canonical encoding must separate
// values that fmt's %v renders identically — %v space-joins composite
// elements, so []string{"x y"} and []string{"x", "y"} both print
// "[x y]"; a fingerprint built on %v would equate the two states and
// let the cache prune a subtree with genuinely different futures.
func TestFingerprintValInjective(t *testing.T) {
	type pair struct{ A, B string }
	cases := []struct {
		name string
		a, b history.Value
	}{
		{"slice element split", []string{"x y"}, []string{"x", "y"}},
		{"struct field boundary", pair{"a b", "c"}, pair{"a", "b c"}},
		{"map key/value boundary", map[string]string{"a:b": "c"}, map[string]string{"a": "b:c"}},
		{"dynamic type", int32(1), int64(1)},
	}
	for _, tc := range cases {
		fa, fb := history.NewFingerprinter(), history.NewFingerprinter()
		fa.Val(tc.a)
		fb.Val(tc.b)
		if fa.Poisoned() || fb.Poisoned() {
			t.Errorf("%s: values unexpectedly poisoned", tc.name)
			continue
		}
		if fa.Sum() == fb.Sum() {
			t.Errorf("%s: %#v and %#v fingerprint equal", tc.name, tc.a, tc.b)
		}
	}
}

// fpStringer exercises the %v method-dispatch escape hatch: String()
// bypasses structural printing, so the walk must refuse the type even
// though its fields are scalars.
type fpStringer struct{ n int }

func (fpStringer) String() string { return "s" }

// TestFingerprintNestedPointerValuePoisonsRun: a run whose script feeds
// a nested-pointer value through the object must refuse to fingerprint,
// same as a LazyArg run, rather than produce an address-dependent one.
func TestFingerprintNestedPointerValuePoisonsRun(t *testing.T) {
	type inner struct{ n int }
	type nested struct{ p *inner }
	res := Run(Config{
		Procs:  2,
		Object: newFPObject(),
		Env: Script(map[int][]Invocation{
			1: {{Op: "write", Arg: nested{p: &inner{n: 3}}}},
		}),
		Scheduler:   FixedProcs([]int{1, 1}),
		Fingerprint: true,
	})
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	if res.Fingerprinted {
		t.Error("nested-pointer value run still fingerprinted; it must poison the fingerprint")
	}
}

// TestFingerprintCrashSet: crashing a process changes the fingerprint
// even when object state and everyone's progress are unchanged.
func TestFingerprintCrashSet(t *testing.T) {
	clean := fpRun(t, []int{1, 1}, map[int][]Invocation{
		1: {{Op: "write", Arg: 7}},
		2: {{Op: "write", Arg: 9}},
	})
	crashed := Run(Config{
		Procs:  2,
		Object: newFPObject(),
		Env: Script(map[int][]Invocation{
			1: {{Op: "write", Arg: 7}},
			2: {{Op: "write", Arg: 9}},
		}),
		Scheduler:   Seq(FixedProcs([]int{1, 1}), Fixed([]Decision{{Proc: 2, Crash: true}})),
		Fingerprint: true,
	})
	if crashed.Err != nil || !crashed.Fingerprinted {
		t.Fatalf("crash run failed: %v (fingerprinted=%v)", crashed.Err, crashed.Fingerprinted)
	}
	if clean.Fingerprint == crashed.Fingerprint {
		t.Error("crashing a process left the fingerprint unchanged")
	}
}
