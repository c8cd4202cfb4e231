package history

import (
	"math/rand"
	"testing"

	"repro/internal/quickseed"
)

func TestEventString(t *testing.T) {
	tests := []struct {
		name string
		e    Event
		want string
	}{
		{"invoke with arg", Invoke(1, "propose", 0), "propose_1(0)"},
		{"invoke no arg", Invoke(2, "start", nil), "start_2()"},
		{"invoke on object", InvokeObj(1, "write", "x", 5), "write@x_1(5)"},
		{"response", Response(1, "propose", 0), "ret_1[propose]=0"},
		{"response no val", Response(3, "tryC", nil), "ret_3[tryC]"},
		{"crash", Crash(2), "crash_2"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.e.String(); got != tt.want {
				t.Errorf("String() = %q, want %q", got, tt.want)
			}
		})
	}
}

func TestWellFormed(t *testing.T) {
	tests := []struct {
		name string
		h    History
		want bool
	}{
		{"empty", History{}, true},
		{"single invoke", History{Invoke(1, "propose", 0)}, true},
		{"invoke response", History{Invoke(1, "propose", 0), Response(1, "propose", 0)}, true},
		{"double invoke same proc", History{Invoke(1, "propose", 0), Invoke(1, "propose", 1)}, false},
		{"response without invoke", History{Response(1, "propose", 0)}, false},
		{"interleaved two procs", History{
			Invoke(1, "propose", 0), Invoke(2, "propose", 1),
			Response(2, "propose", 1), Response(1, "propose", 1),
		}, true},
		{"crash then event", History{Crash(1), Invoke(1, "propose", 0)}, false},
		{"crash while pending ok", History{Invoke(1, "propose", 0), Crash(1)}, true},
		{"response after response", History{
			Invoke(1, "p", 0), Response(1, "p", 0), Response(1, "p", 0),
		}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.h.WellFormed(); got != tt.want {
				t.Errorf("WellFormed() = %v, want %v for %s", got, tt.want, tt.h)
			}
		})
	}
}

func TestProjectAndPending(t *testing.T) {
	h := History{
		Invoke(1, "propose", 0),
		Invoke(2, "propose", 1),
		Response(1, "propose", 0),
	}
	p1 := h.Project(1)
	if len(p1) != 2 || p1[0].Proc != 1 || p1[1].Proc != 1 {
		t.Fatalf("Project(1) = %v", p1)
	}
	if h.Pending(1) {
		t.Error("proc 1 should not be pending")
	}
	if !h.Pending(2) {
		t.Error("proc 2 should be pending")
	}
	if got := h.PendingProcs(); len(got) != 1 || got[0] != 2 {
		t.Errorf("PendingProcs() = %v, want [2]", got)
	}
}

func TestProcsSorted(t *testing.T) {
	h := History{Invoke(3, "p", 0), Invoke(1, "p", 0), Invoke(2, "p", 0)}
	got := h.Procs()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Procs() = %v, want %v", got, want)
		}
	}
}

func TestPrefixAndIsPrefixOf(t *testing.T) {
	h := History{Invoke(1, "p", 0), Response(1, "p", 0), Invoke(2, "p", 1)}
	if !h.Prefix(2).IsPrefixOf(h) {
		t.Error("Prefix(2) should be a prefix of h")
	}
	if h.Prefix(5).Equal(h) != true {
		t.Error("Prefix beyond length should clamp to h")
	}
	if h.Prefix(-1).Equal(History{}) != true {
		t.Error("negative prefix should be empty")
	}
	other := History{Invoke(1, "p", 0), Response(1, "p", 1)}
	if other.IsPrefixOf(h) {
		t.Error("mismatching history should not be a prefix")
	}
	longer := h.Append(Crash(1))
	if longer.IsPrefixOf(h) {
		t.Error("longer history cannot be a prefix of shorter")
	}
}

func TestEquivalent(t *testing.T) {
	h1 := History{
		Invoke(1, "p", 0), Invoke(2, "p", 1),
		Response(1, "p", 0), Response(2, "p", 0),
	}
	// Same per-process projections, different interleaving.
	h2 := History{
		Invoke(2, "p", 1), Invoke(1, "p", 0),
		Response(2, "p", 0), Response(1, "p", 0),
	}
	if !h1.Equivalent(h2) {
		t.Error("reordered interleaving with identical projections should be equivalent")
	}
	h3 := History{Invoke(1, "p", 0), Response(1, "p", 1)}
	if h1.Equivalent(h3) {
		t.Error("different projections should not be equivalent")
	}
	// Equivalence must consider processes present only in one history.
	h4 := h1.Append(Invoke(3, "p", 2))
	if h1.Equivalent(h4) {
		t.Error("extra process must break equivalence")
	}
}

func TestCrashedCorrect(t *testing.T) {
	h := History{Invoke(1, "p", 0), Crash(1), Invoke(2, "p", 0)}
	if !h.Crashed(1) || h.Correct(1) {
		t.Error("proc 1 crashed")
	}
	if h.Crashed(2) || !h.Correct(2) {
		t.Error("proc 2 is correct")
	}
}

func TestOperationsMatching(t *testing.T) {
	h := History{
		Invoke(1, "propose", 7),
		Invoke(2, "propose", 9),
		Response(1, "propose", 7),
		Invoke(1, "propose", 8),
	}
	ops := h.Operations()
	if len(ops) != 3 {
		t.Fatalf("Operations() returned %d ops, want 3", len(ops))
	}
	if !ops[0].Done || ops[0].Val != 7 || ops[0].ResIndex != 2 {
		t.Errorf("op0 = %+v", ops[0])
	}
	if ops[1].Done {
		t.Errorf("op1 should be pending: %+v", ops[1])
	}
	if ops[2].Done || ops[2].Arg != 8 {
		t.Errorf("op2 = %+v", ops[2])
	}
	if !PrecedesRealTime(ops[0], ops[2]) {
		t.Error("op0 completes before op2 begins")
	}
	if PrecedesRealTime(ops[1], ops[2]) {
		t.Error("pending op cannot precede anything")
	}
}

func TestResponseCount(t *testing.T) {
	h := History{
		Invoke(1, "tryC", nil), Response(1, "tryC", Abort),
		Invoke(1, "tryC", nil), Response(1, "tryC", Commit),
		Invoke(2, "tryC", nil), Response(2, "tryC", Commit),
	}
	good := map[Value]bool{Commit: true}
	if got := h.ResponseCount(1, good); got != 1 {
		t.Errorf("good responses for p1 = %d, want 1", got)
	}
	if got := h.ResponseCount(1, nil); got != 2 {
		t.Errorf("all responses for p1 = %d, want 2", got)
	}
	if got := h.ResponseCount(3, nil); got != 0 {
		t.Errorf("responses for absent proc = %d, want 0", got)
	}
}

func TestAppendDoesNotMutate(t *testing.T) {
	h := make(History, 0, 8)
	h = append(h, Invoke(1, "p", 0))
	h2 := h.Append(Response(1, "p", 0))
	h3 := h.Append(Crash(1))
	if h2[1].Kind != KindResponse || h3[1].Kind != KindCrash {
		t.Error("Append aliased underlying storage between derived histories")
	}
	if len(h) != 1 {
		t.Error("Append mutated the receiver")
	}
}

// randomWellFormed builds a random well-formed history for property tests.
func randomWellFormed(r *rand.Rand, procs, steps int) History {
	var h History
	pending := make(map[int]bool)
	crashed := make(map[int]bool)
	for i := 0; i < steps; i++ {
		p := 1 + r.Intn(procs)
		if crashed[p] {
			continue
		}
		switch {
		case r.Intn(20) == 0:
			h = append(h, Crash(p))
			crashed[p] = true
		case pending[p]:
			h = append(h, Response(p, "op", r.Intn(3)))
			pending[p] = false
		default:
			h = append(h, Invoke(p, "op", r.Intn(3)))
			pending[p] = true
		}
	}
	return h
}

func TestQuickWellFormedClosures(t *testing.T) {
	// Well-formedness is closed under prefixes and projections, and
	// projection commutes with prefix length bookkeeping.
	f := func(seed int64, steps uint8) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomWellFormed(r, 3, int(steps%60))
		if !h.WellFormed() {
			return false
		}
		for n := 0; n <= len(h); n++ {
			if !h.Prefix(n).WellFormed() {
				return false
			}
		}
		for _, p := range h.Procs() {
			if !h.Project(p).WellFormed() {
				return false
			}
		}
		return true
	}
	quickseed.Check(t, f, 200)
}

func TestQuickEquivalenceReflexiveAndKeyed(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomWellFormed(r, 3, int(steps%40))
		if !h.Equivalent(h) {
			return false
		}
		// Key must be injective enough to distinguish a strict extension.
		ext := h.Append(Invoke(9, "zz", 1))
		return h.Key() != ext.Key() && h.Clone().Key() == h.Key()
	}
	quickseed.Check(t, f, 200)
}
