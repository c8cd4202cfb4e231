package safety

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/history"
	"repro/internal/quickseed"
)

func TestQueueSpecBasics(t *testing.T) {
	spec := QueueSpec{}
	tests := []struct {
		name string
		h    history.History
		want bool
	}{
		{"fifo order", history.History{
			inv(1, "enq", "a"), res(1, "enq", history.OK),
			inv(1, "enq", "b"), res(1, "enq", history.OK),
			inv(2, "deq", nil), res(2, "deq", "a"),
			inv(2, "deq", nil), res(2, "deq", "b"),
		}, true},
		{"lifo order invalid", history.History{
			inv(1, "enq", "a"), res(1, "enq", history.OK),
			inv(1, "enq", "b"), res(1, "enq", history.OK),
			inv(2, "deq", nil), res(2, "deq", "b"),
			inv(2, "deq", nil), res(2, "deq", "a"),
		}, false},
		{"empty dequeue", history.History{
			inv(1, "deq", nil), res(1, "deq", EmptyResp),
		}, true},
		{"concurrent enq deq may pair", history.History{
			inv(1, "enq", "a"),
			inv(2, "deq", nil), res(2, "deq", "a"),
			res(1, "enq", history.OK),
		}, true},
		{"dequeue of never-enqueued value", history.History{
			inv(1, "enq", "a"), res(1, "enq", history.OK),
			inv(2, "deq", nil), res(2, "deq", "z"),
		}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Linearizable(spec, tt.h); got != tt.want {
				t.Errorf("Linearizable = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestStackSpecBasics(t *testing.T) {
	spec := StackSpec{}
	lifo := history.History{
		inv(1, "push", "a"), res(1, "push", history.OK),
		inv(1, "push", "b"), res(1, "push", history.OK),
		inv(2, "pop", nil), res(2, "pop", "b"),
		inv(2, "pop", nil), res(2, "pop", "a"),
		inv(2, "pop", nil), res(2, "pop", EmptyResp),
	}
	if !Linearizable(spec, lifo) {
		t.Error("LIFO history must be linearizable for the stack")
	}
	fifo := history.History{
		inv(1, "push", "a"), res(1, "push", history.OK),
		inv(1, "push", "b"), res(1, "push", history.OK),
		inv(2, "pop", nil), res(2, "pop", "a"),
	}
	if Linearizable(spec, fifo) {
		t.Error("FIFO pop order must be rejected by the stack spec")
	}
}

// TestContainerSpecItemBoundaries: queue and stack items are
// length-prefixed inside the state, so an item holding the old comma
// separator, or the empty item, comes back whole. Both checkers used to
// reject these sequential one-process histories: "x,y" split into two
// items, and "" left a state equal to the empty container.
func TestContainerSpecItemBoundaries(t *testing.T) {
	tests := []struct {
		name string
		spec SeqSpec
		h    history.History
	}{
		{"queue comma item", QueueSpec{}, history.History{
			inv(1, "enq", "x,y"), res(1, "enq", history.OK),
			inv(1, "deq", nil), res(1, "deq", "x,y"),
		}},
		{"queue empty item", QueueSpec{}, history.History{
			inv(1, "enq", ""), res(1, "enq", history.OK),
			inv(1, "deq", nil), res(1, "deq", ""),
		}},
		{"stack comma item", StackSpec{}, history.History{
			inv(1, "push", "x,y"), res(1, "push", history.OK),
			inv(1, "pop", nil), res(1, "pop", "x,y"),
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if !Linearizable(tt.spec, tt.h) {
				t.Error("Linearizable rejects a sequential history")
			}
			m := NewLinMonitor(tt.spec)
			for i, e := range tt.h {
				if !m.Step(e) {
					t.Fatalf("LinMonitor rejects a sequential history at event %d (%s)", i+1, e)
				}
			}
		})
	}
}

func TestCounterSpecBasics(t *testing.T) {
	spec := CounterSpec{}
	good := history.History{
		inv(1, "inc", nil), res(1, "inc", 0),
		inv(2, "inc", nil), res(2, "inc", 1),
		inv(1, "get", nil), res(1, "get", 2),
	}
	if !Linearizable(spec, good) {
		t.Error("sequential increments must linearize")
	}
	dup := history.History{
		inv(1, "inc", nil), res(1, "inc", 0),
		inv(2, "inc", nil), res(2, "inc", 0),
	}
	if Linearizable(spec, dup) {
		t.Error("two increments cannot both return 0")
	}
	concurrent := history.History{
		inv(1, "inc", nil),
		inv(2, "inc", nil),
		res(1, "inc", 1), res(2, "inc", 0),
	}
	if !Linearizable(spec, concurrent) {
		t.Error("concurrent increments may linearize in either order")
	}
}

// TestQuickSpecsAcceptSequentialExecutions: any history generated by
// running the spec sequentially must be linearizable.
func TestQuickSpecsAcceptSequentialExecutions(t *testing.T) {
	specs := []SeqSpec{QueueSpec{}, StackSpec{}, CounterSpec{}}
	opsFor := map[string][]string{
		"queue":   {"enq", "deq"},
		"stack":   {"push", "pop"},
		"counter": {"inc", "get"},
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for _, spec := range specs {
			h := sequentialHistory(r, spec, opsFor[spec.Name()], 12)
			if !Linearizable(spec, h) {
				t.Logf("%s rejected its own sequential history: %s", spec.Name(), h)
				return false
			}
		}
		return true
	}
	quickseed.Check(t, f, 120)
}

// sequentialHistory runs random operations through the spec sequentially,
// producing a matching history.
func sequentialHistory(r *rand.Rand, spec SeqSpec, ops []string, n int) history.History {
	var h history.History
	st := spec.Init()
	for i := 0; i < n; i++ {
		op := ops[r.Intn(len(ops))]
		var arg history.Value
		if op == "enq" || op == "push" {
			arg = fmt.Sprintf("v%d", r.Intn(4))
		}
		proc := 1 + r.Intn(3)
		trs := spec.Apply(st, proc, op, "", arg)
		if len(trs) == 0 {
			continue
		}
		tr := trs[r.Intn(len(trs))]
		h = append(h,
			history.Invoke(proc, op, arg),
			history.Response(proc, op, tr.Resp))
		st = tr.Next
	}
	return h
}
