package tm

import (
	"testing"

	"repro/internal/liveness"
	"repro/internal/safety"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// newI12SW builds Algorithm 1 on the software snapshot: registers plus a
// single CAS, no hardware snapshot primitive.
func newI12SW(n int) *I12 {
	return NewI12WithSnapshot(n, snapshot.New("R", n, 0))
}

func TestI12SoftwareSnapshotSequential(t *testing.T) {
	env := sim.Script(map[int][]sim.Invocation{
		1: {
			{Op: "start"},
			{Op: "write", Obj: "x", Arg: 42},
			{Op: "tryC"},
			{Op: "start"},
			{Op: "read", Obj: "x"},
			{Op: "tryC"},
		},
	})
	res := run(t, newI12SW(1), 1, env, &sim.RoundRobin{}, 0)
	for _, op := range res.H.Operations() {
		if op.Name == "read" && op.Done && op.Val != 42 {
			t.Errorf("read returned %v, want 42", op.Val)
		}
	}
	if !safety.Opaque(res.H) {
		t.Error("history must be opaque")
	}
}

func TestI12SoftwareSnapshotOpacityAndS(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		tpl := RandomWorkload(seed+2000, 3, 4, 2)
		res := run(t, newI12SW(3), 3, TxnLoop(tpl), sim.Random(seed), 260)
		if !safety.Opaque(res.H) {
			t.Fatalf("seed %d: opacity violated: %s", seed, res.H)
		}
		if !(safety.PropertyS{}).Holds(res.H) {
			t.Fatalf("seed %d: property S violated: %s", seed, res.H)
		}
	}
}

func TestI12SoftwareSnapshotTwoProcessProgress(t *testing.T) {
	tpl := map[int]Txn{
		1: {Accesses: []Access{{Write: true, Var: "x", Val: 1}}},
		2: {Accesses: []Access{{Write: true, Var: "x", Val: 2}}},
	}
	res := run(t, newI12SW(2), 2, TxnLoop(tpl),
		sim.Limit(sim.Alternate(1, 2), 800), 800)
	e := liveness.FromResult(res, 0)
	if !(liveness.LK{L: 1, K: 2, Good: liveness.TMGood()}).Holds(e) {
		t.Errorf("(1,2)-freedom must hold on the software-snapshot I12; commits=%v", commits(res.H))
	}
}

func TestI12SoftwareSnapshotThreeLockstepAborts(t *testing.T) {
	// The Section 5.3 behavior must survive the snapshot substitution:
	// three same-paced processes all abort forever.
	tpl := map[int]Txn{1: {}, 2: {}, 3: {}}
	res := run(t, newI12SW(3), 3, TxnLoop(tpl),
		sim.Limit(sim.Alternate(1, 2, 3), 1200), 1200)
	if cs := commits(res.H); len(cs) != 0 {
		t.Fatalf("lockstep transactions must all abort, got commits %v", cs)
	}
	if !(safety.PropertyS{}).Holds(res.H) {
		t.Error("property S holds on the all-aborted history")
	}
}

// TestI12SoftwareSnapshotCanSnapshot: the software snapshot's frames
// fork and its state snapshots, so I12 over it takes the snapshot
// strategy like I12 over the hardware primitive.
func TestI12SoftwareSnapshotCanSnapshot(t *testing.T) {
	if !sim.CanSnapshot(newI12SW(2)) {
		t.Error("I12 over the software snapshot must support the snapshot strategy")
	}
}
