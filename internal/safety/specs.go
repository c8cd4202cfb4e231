package safety

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/history"
)

// Sequential specifications of classic high-level objects (the paper's
// Section 1 context "high-level object implementations from registers
// [19]"), used by the linearizability checker. Queue and stack states
// are comparable strings holding each item's %v rendering behind a
// length prefix ("3:x,y"), so no payload — one holding a comma, or the
// empty string — can shift an item boundary. Dequeue/pop responses come
// back as the rendered items: use string payloads (or any values whose
// %v form is the value itself) when checking histories against these
// specs.

// withItem returns the container state before+item+after, item being
// v's %v rendering behind its length (a string renders as itself).
func withItem(before string, v history.Value, after string) string {
	s, ok := v.(string)
	if !ok {
		s = fmt.Sprintf("%v", v)
	}
	return before + strconv.Itoa(len(s)) + ":" + s + after
}

// headItem splits a non-empty container state into its first item's
// rendering and the remaining state. States are built only by withItem,
// so the length prefix always parses.
func headItem(enc string) (item, rest string) {
	colon := strings.IndexByte(enc, ':')
	n, _ := strconv.Atoi(enc[:colon])
	end := colon + 1 + n
	return enc[colon+1 : end], enc[end:]
}

// EmptyResp is the response of a dequeue/pop on an empty container.
const EmptyResp = "empty"

// QueueSpec is a FIFO queue with operations "enq" (argument, responds OK)
// and "deq" (responds the head value or EmptyResp).
type QueueSpec struct{}

// Name implements SeqSpec.
func (QueueSpec) Name() string { return "queue" }

// Init implements SeqSpec.
func (QueueSpec) Init() State { return "" }

// Apply implements SeqSpec.
func (QueueSpec) Apply(st State, proc int, op, obj string, arg history.Value) []Transition {
	enc, ok := st.(string)
	if !ok {
		return nil
	}
	switch op {
	case "enq":
		return []Transition{Transition{Next: withItem(enc, arg, ""), Resp: history.OK}}
	case "deq":
		if enc == "" {
			return []Transition{Transition{Next: "", Resp: EmptyResp}}
		}
		item, rest := headItem(enc)
		return []Transition{Transition{Next: rest, Resp: item}}
	default:
		return nil
	}
}

// StackSpec is a LIFO stack with operations "push" and "pop".
type StackSpec struct{}

// Name implements SeqSpec.
func (StackSpec) Name() string { return "stack" }

// Init implements SeqSpec.
func (StackSpec) Init() State { return "" }

// Apply implements SeqSpec.
func (StackSpec) Apply(st State, proc int, op, obj string, arg history.Value) []Transition {
	enc, ok := st.(string)
	if !ok {
		return nil
	}
	switch op {
	case "push":
		return []Transition{Transition{Next: withItem("", arg, enc), Resp: history.OK}}
	case "pop":
		if enc == "" {
			return []Transition{Transition{Next: "", Resp: EmptyResp}}
		}
		item, rest := headItem(enc)
		return []Transition{Transition{Next: rest, Resp: item}}
	default:
		return nil
	}
}

// CounterSpec is a fetch-and-increment counter: "inc" responds with the
// pre-increment value, "get" with the current value.
type CounterSpec struct{}

// Name implements SeqSpec.
func (CounterSpec) Name() string { return "counter" }

// Init implements SeqSpec.
func (CounterSpec) Init() State { return 0 }

// Apply implements SeqSpec.
func (CounterSpec) Apply(st State, proc int, op, obj string, arg history.Value) []Transition {
	n, ok := st.(int)
	if !ok {
		return nil
	}
	switch op {
	case "inc":
		return []Transition{Transition{Next: n + 1, Resp: n}}
	case "get":
		return []Transition{Transition{Next: n, Resp: n}}
	default:
		return nil
	}
}
