package snapshot

import (
	"testing"

	"repro/internal/history"
	"repro/internal/safety"
	"repro/internal/sim"
	"repro/slx"
)

// snapObject drives SW's frames through the simulator: "update" writes
// the caller's own component and responds OK, "scan" responds with the
// encoded vector.
type snapObject struct {
	s *SW
}

func (o *snapObject) Apply(p *sim.Proc, inv sim.Invocation) history.Value {
	return sim.ApplyFrames(o, p, inv)
}

func (o *snapObject) Begin(p *sim.Proc, inv sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	switch inv.Op {
	case "update":
		return opFrame{o.s.UpdateFrame(p.ID()-1, inv.Arg)}, nil, sim.StepPaused
	case "scan":
		return opFrame{o.s.ScanFrame()}, nil, sim.StepPaused
	default:
		return nil, nil, sim.StepDone
	}
}

// opFrame steps an SW frame and maps its completion to the response.
type opFrame struct{ f sim.Frame }

func (o opFrame) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	v, st := o.f.Step(p)
	if st != sim.StepDone {
		return nil, st
	}
	if view, ok := v.([]history.Value); ok {
		return safety.EncodeVector(view), sim.StepDone
	}
	return history.OK, sim.StepDone
}

func (o opFrame) Fork() sim.Frame { return opFrame{o.f.Fork()} }

func TestSequentialSemantics(t *testing.T) {
	s := New("R", 3, 0)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	// Each operation runs alone to completion: a scan is its invocation
	// plus two agreeing collects of three reads (7 steps), an update is
	// its invocation, that scan, and the read and the write of its own
	// register (9 steps).
	res := sim.Run(sim.Config{
		Procs:  3,
		Object: &snapObject{s: s},
		Env: sim.Script(map[int][]sim.Invocation{
			1: {{Op: "scan"}, {Op: "scan"}, {Op: "scan"}},
			2: {{Op: "update", Arg: 7}, {Op: "update", Arg: 8}},
			3: {{Op: "update", Arg: 9}},
		}),
		Scheduler: sim.Seq(
			sim.Limit(sim.Solo(1), 7),
			sim.Limit(sim.Solo(2), 9),
			sim.Limit(sim.Solo(1), 7),
			sim.Limit(sim.Solo(2), 9),
			sim.Limit(sim.Solo(3), 9),
			sim.Limit(sim.Solo(1), 7),
		),
		MaxSteps: 100,
	})
	if res.Err != nil {
		t.Fatalf("run error: %v", res.Err)
	}
	var scans []history.Value
	for _, e := range res.H {
		if e.Kind == history.KindResponse && e.Proc == 1 {
			scans = append(scans, e.Val)
		}
	}
	want := []history.Value{
		safety.EncodeVector([]history.Value{0, 0, 0}),
		safety.EncodeVector([]history.Value{0, 7, 0}),
		safety.EncodeVector([]history.Value{0, 8, 9}),
	}
	if len(scans) != len(want) {
		t.Fatalf("scans = %v, want %v", scans, want)
	}
	for i := range want {
		if scans[i] != want[i] {
			t.Fatalf("scans = %v, want %v", scans, want)
		}
	}
	if s.Borrows() != 0 {
		t.Errorf("sequential scans never borrow, got %d", s.Borrows())
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

// peek reads a register between runs: an accessor that declares and
// observes nothing.
type peek struct{}

func (peek) Access(string, bool) {}
func (peek) Observe(Value)       {}

func TestSingleWriterSequencesAdvance(t *testing.T) {
	s := New("R", 2, 0)
	var updates []sim.Invocation
	for i := 1; i <= 5; i++ {
		updates = append(updates, sim.Invocation{Op: "update", Arg: i * 10})
	}
	res := sim.Run(sim.Config{
		Procs:     1,
		Object:    &snapObject{s: s},
		Env:       sim.Script(map[int][]sim.Invocation{1: updates}),
		Scheduler: &sim.RoundRobin{},
		MaxSteps:  100,
	})
	if res.Err != nil {
		t.Fatalf("run error: %v", res.Err)
	}
	c := s.regs[0].ReadW(peek{}).(*cell)
	if c.seq != 5 || c.val != 50 {
		t.Errorf("cell = seq %d val %v, want seq 5 val 50", c.seq, c.val)
	}
}
