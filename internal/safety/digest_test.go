package safety

import (
	"testing"

	"repro/internal/history"
)

// digestHistory digests an event sequence from scratch through the
// running form the history-keeping monitors maintain.
func digestHistory(h history.History) (uint64, bool) {
	var d history.HistoryDigest
	for _, e := range h {
		d.Append(e)
	}
	return d.Sum()
}

// TestDigestValueSetDelimiterInjection: set elements are
// length-prefixed, so a single value that embeds the rendering of two
// elements cannot digest equal to the two-element set (joined
// undelimited, {"a","b"} and {"a,string=b"} used to render the same
// byte string — a collision between semantically different monitor
// states that the cache would have pruned on).
func TestDigestValueSetDelimiterInjection(t *testing.T) {
	two := &avMonitor{proposed: map[history.Value]bool{"a": true, "b": true}}
	one := &avMonitor{proposed: map[history.Value]bool{"a,string=b": true}}
	d2, ok2 := two.StateDigest()
	d1, ok1 := one.StateDigest()
	if !ok1 || !ok2 {
		t.Fatalf("string-valued monitors must digest: ok1=%v ok2=%v", ok1, ok2)
	}
	if d1 == d2 {
		t.Error("value set {a,b} digests equal to {\"a,string=b\"}: delimiter injection")
	}
}

// TestDigestEventDelimiterInjection: event fields are length-prefixed,
// so a "/" inside one string field cannot shift the boundary to the
// next field.
func TestDigestEventDelimiterInjection(t *testing.T) {
	a := history.History{{Kind: history.KindInvoke, Proc: 1, Op: "a/b", Obj: "c"}}
	b := history.History{{Kind: history.KindInvoke, Proc: 1, Op: "a", Obj: "b/c"}}
	da, oka := digestHistory(a)
	db, okb := digestHistory(b)
	if !oka || !okb {
		t.Fatalf("string-valued events must digest: oka=%v okb=%v", oka, okb)
	}
	if da == db {
		t.Error("Op=a/b,Obj=c digests equal to Op=a,Obj=b/c: delimiter injection")
	}
}

// TestDigestValueInjectiveInsideComposites: the canonical value
// encoding must separate values %v renders identically one level down
// — composite elements are individually delimited, so {"x y"} and
// {"x","y"} (both "[x y]" under %v) digest differently.
func TestDigestValueInjectiveInsideComposites(t *testing.T) {
	a := &avMonitor{proposed: map[history.Value]bool{[2]string{"x y", ""}: true}}
	b := &avMonitor{proposed: map[history.Value]bool{[2]string{"x", "y "}: true}}
	da, oka := a.StateDigest()
	db, okb := b.StateDigest()
	if !oka || !okb {
		t.Fatalf("array-valued monitors must digest: oka=%v okb=%v", oka, okb)
	}
	if da == db {
		t.Error("composite values with shifted element boundaries digest equal")
	}
}

// TestDigestPoisonsAddressValues: a monitor state holding a value whose
// %v rendering would embed a heap address (a nested non-nil pointer)
// must report itself undigestable — the prefix becomes uncacheable —
// rather than produce a digest that varies across runs and can collide
// across distinct states. Mirrors sim.Fingerprinter.Val's guard.
func TestDigestPoisonsAddressValues(t *testing.T) {
	type boxed struct{ p *int }
	bad := boxed{p: new(int)}

	m := &avMonitor{proposed: map[history.Value]bool{bad: true}}
	if _, ok := m.StateDigest(); ok {
		t.Error("avMonitor with nested-pointer proposed value still digests")
	}

	h := history.History{{Kind: history.KindInvoke, Proc: 1, Op: "w", Arg: bad}}
	if _, ok := digestHistory(h); ok {
		t.Error("history digest with nested-pointer argument still digests")
	}
}
