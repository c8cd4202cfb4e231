package snapshot

import (
	"testing"

	"repro/internal/history"
	"repro/internal/safety"
	"repro/internal/sim"
	"repro/slx"
)

// seqStepper executes ops immediately; for sequential unit tests.
type seqStepper struct{ steps int }

func (s *seqStepper) Exec(desc string, op func()) {
	s.steps++
	op()
}

func TestSequentialSemantics(t *testing.T) {
	st := &seqStepper{}
	s := New("R", 3, 0)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	got := s.Scan(st)
	for i, v := range got {
		if v != 0 {
			t.Fatalf("initial Scan[%d] = %v", i, v)
		}
	}
	s.Update(st, 1, 7)
	got = s.Scan(st)
	want := []Value{0, 7, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Scan = %v, want %v", got, want)
		}
	}
	s.Update(st, 1, 8)
	s.Update(st, 2, 9)
	got = s.Scan(st)
	want = []Value{0, 8, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Scan = %v, want %v", got, want)
		}
	}
	if s.Borrows() != 0 {
		t.Errorf("sequential scans never borrow, got %d", s.Borrows())
	}
}

// snapObject drives SW through the simulator: "update" writes the caller's
// own component, "scan" returns the encoded vector.
type snapObject struct {
	s *SW
}

func (o *snapObject) Apply(p *sim.Proc, inv sim.Invocation) history.Value {
	switch inv.Op {
	case "update":
		o.s.Update(p, p.ID()-1, inv.Arg)
		return history.OK
	case "scan":
		return safety.EncodeVector(o.s.Scan(p))
	default:
		return nil
	}
}

func TestLinearizableUnderRandomSchedules(t *testing.T) {
	spec := safety.SnapshotSpec{N: 3, Initial: 0}
	for seed := int64(0); seed < 120; seed++ {
		obj := &snapObject{s: New("R", 3, 0)}
		res := sim.Run(sim.Config{
			Procs:  3,
			Object: obj,
			Env: sim.Script(map[int][]sim.Invocation{
				1: {{Op: "update", Arg: 11}, {Op: "scan"}, {Op: "update", Arg: 12}},
				2: {{Op: "scan"}, {Op: "update", Arg: 21}, {Op: "scan"}},
				3: {{Op: "update", Arg: 31}, {Op: "scan"}},
			}),
			Scheduler: sim.Random(seed),
			MaxSteps:  2000,
		})
		if res.Err != nil {
			t.Fatalf("seed %d: %v", seed, res.Err)
		}
		if !safety.Linearizable(spec, res.H) {
			t.Fatalf("seed %d: snapshot not linearizable: %s", seed, res.H)
		}
	}
}

func TestLinearizableExhaustive(t *testing.T) {
	// All interleavings of one scan against one update, to a depth
	// covering complete runs (the borrow path has its own directed test).
	spec := safety.SnapshotSpec{N: 2, Initial: 0}
	rep, err := slx.New(
		slx.WithProcs(2),
		slx.WithObject(func() sim.Object { return &snapObject{s: New("R", 2, 0)} }),
		slx.WithEnv(func() sim.Environment {
			return sim.Script(map[int][]sim.Invocation{
				1: {{Op: "scan"}},
				2: {{Op: "update", Arg: 5}},
			})
		}),
		slx.WithDepth(24),
	).Explore(slx.SafetyFunc("snapshot-linearizability", func(h history.History) bool {
		return safety.Linearizable(spec, h)
	}))
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("exhaustive check failed: %s (witness %v)", rep.Failures()[0], rep.Witness())
	}
	if rep.Prefixes < 100 {
		t.Errorf("expected substantial exploration, got %d prefixes", rep.Prefixes)
	}
}

func TestBorrowPathTaken(t *testing.T) {
	// Force the borrow: p1 begins a scan (first collect), then p2 performs
	// two full updates, then p1's further collects observe two moves and
	// borrow the embedded view.
	obj := &snapObject{s: New("R", 2, 0)}
	res := sim.Run(sim.Config{
		Procs:  2,
		Object: obj,
		Env: sim.Script(map[int][]sim.Invocation{
			1: {{Op: "scan"}},
			2: {{Op: "update", Arg: 5}, {Op: "update", Arg: 6}},
		}),
		Scheduler: sim.Seq(
			sim.Limit(sim.Solo(1), 3), // invoke + first collect (2 reads)
			sim.Limit(sim.Solo(2), 8), // first update completes
			sim.Limit(sim.Solo(1), 2), // second collect: sees one move
			sim.Limit(sim.Solo(2), 8), // second update completes
			sim.Solo(1),               // third collect: second move → borrow
			sim.Solo(2),
		),
		MaxSteps: 100,
	})
	if res.Err != nil {
		t.Fatalf("run error: %v", res.Err)
	}
	if obj.s.Borrows() == 0 {
		t.Fatal("schedule should force a borrowed view")
	}
	if !safety.Linearizable(safety.SnapshotSpec{N: 2, Initial: 0}, res.H) {
		t.Fatalf("borrowed scan must stay linearizable: %s", res.H)
	}
}

func TestScanWaitFree(t *testing.T) {
	// A scan's step count is bounded even under continuous interference:
	// with n=2 and a single interfering updater, a scan needs at most
	// 1 + (n+2) collects of n reads each, i.e. well under 20 steps.
	obj := &snapObject{s: New("R", 2, 0)}
	res := sim.Run(sim.Config{
		Procs:  2,
		Object: obj,
		Env: sim.Script(map[int][]sim.Invocation{
			1: {{Op: "scan"}},
			2: {
				{Op: "update", Arg: 1}, {Op: "update", Arg: 2},
				{Op: "update", Arg: 3}, {Op: "update", Arg: 4},
				{Op: "update", Arg: 5}, {Op: "update", Arg: 6},
			},
		}),
		// Give p1 one step for every two of p2's: maximal interference.
		Scheduler: sim.Limit(sim.Alternate(1, 2, 2), 120),
		MaxSteps:  200,
	})
	if res.Err != nil {
		t.Fatalf("run error: %v", res.Err)
	}
	if res.H.Pending(1) {
		t.Fatalf("scan must complete despite interference (took >%d steps)", res.StepsBy[1])
	}
	if res.StepsBy[1] > 20 {
		t.Errorf("scan took %d steps, want <= 20 (wait-freedom bound)", res.StepsBy[1])
	}
}

func TestSingleWriterSequencesAdvance(t *testing.T) {
	st := &seqStepper{}
	s := New("R", 2, 0)
	for i := 1; i <= 5; i++ {
		s.Update(st, 0, i*10)
	}
	c := s.regs[0].Read(st).(*cell)
	if c.seq != 5 || c.val != 50 {
		t.Errorf("cell = seq %d val %v, want seq 5 val 50", c.seq, c.val)
	}
}
