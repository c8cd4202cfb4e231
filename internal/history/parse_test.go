package history

import (
	"math/rand"
	"testing"

	"repro/internal/quickseed"
)

func TestParseBasics(t *testing.T) {
	tests := []struct {
		in   string
		want History
	}{
		{"ε", History{}},
		{"", History{}},
		{"propose_1(0)", History{Invoke(1, "propose", 0)}},
		{"start_2()", History{Invoke(2, "start", nil)}},
		{"write@x_1(5)", History{InvokeObj(1, "write", "x", 5)}},
		{"ret_1[propose]=0", History{Response(1, "propose", 0)}},
		{"ret_3[tryC]", History{Response(3, "tryC", nil)}},
		{"ret@x_2[read]=A", History{ResponseObj(2, "read", "x", "A")}},
		{"crash_2", History{Crash(2)}},
		{
			"propose_1(0) · ret_1[propose]=0 · crash_2",
			History{Invoke(1, "propose", 0), Response(1, "propose", 0), Crash(2)},
		},
		{"cas_1(true)", History{Invoke(1, "cas", true)}},
		{"recover_1", History{Recover(1)}},
		{"retry_1()", History{Invoke(1, "retry", nil)}},
		{"crash_2()", History{Invoke(2, "crash", nil)}},
		{"ret@x_1[retry]", History{ResponseObj(1, "retry", "x", nil)}},
	}
	for _, tt := range tests {
		t.Run(tt.in, func(t *testing.T) {
			got, err := Parse(tt.in)
			if err != nil {
				t.Fatalf("Parse(%q): %v", tt.in, err)
			}
			if !got.Equal(tt.want) {
				t.Errorf("Parse(%q) = %s, want %s", tt.in, got, tt.want)
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"garbage",
		"crash_x",
		"ret_1propose",
		"propose_(0)",
		"ret_z[op]=1",
		"recover_x",
		"ret_1(5)",
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse must panic on bad input")
		}
	}()
	MustParse("garbage")
}

// randomParsableHistory builds histories whose values survive the
// formatting round trip (ints, bools, and non-numeric strings).
func randomParsableHistory(r *rand.Rand, events int) History {
	ops := []string{"propose", "read", "write", "tryC", "start"}
	objs := []string{"", "x", "y0"}
	vals := []Value{nil, 0, 1, 42, true, false, "ok", "A", "C", "hello"}
	var h History
	pending := map[int]string{}
	for i := 0; i < events; i++ {
		p := 1 + r.Intn(3)
		if op, ok := pending[p]; ok {
			h = append(h, Event{
				Kind: KindResponse, Proc: p, Op: op,
				Obj: objs[r.Intn(len(objs))], Val: vals[r.Intn(len(vals))],
			})
			delete(pending, p)
			continue
		}
		switch r.Intn(8) {
		case 0:
			h = append(h, Crash(p))
		default:
			op := ops[r.Intn(len(ops))]
			h = append(h, Event{
				Kind: KindInvoke, Proc: p, Op: op,
				Obj: objs[r.Intn(len(objs))], Arg: vals[r.Intn(len(vals))],
			})
			pending[p] = op
		}
	}
	return h
}

func TestQuickParseRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomParsableHistory(r, int(n)%24)
		back, err := Parse(h.String())
		if err != nil {
			t.Logf("Parse(%q): %v", h.String(), err)
			return false
		}
		if !back.Equal(h) {
			t.Logf("round trip: %s != %s", back, h)
			return false
		}
		return true
	}
	quickseed.Check(t, f, 400)
}

// FuzzParse: Parse never panics, and every history it accepts renders,
// through History.String, to text that parses back to an equal history.
// The seeds hold each event kind, the renderings that share a prefix
// with another kind (recover_1, retry_1(), crash_2()), and values
// holding the format's own delimiters.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"ε",
		"propose_1(0) · ret_1[propose]=0 · crash_2 · recover_2",
		"write@x_1(5) · ret@x_1[write]=ok · read@y0_2() · ret@y0_2[read]=A",
		"retry_1() · ret_1[retry] · crash_2() · ret_2[crash]=true",
		"enq_1(a:1) · ret_1[enq]=ok · deq_2() · ret_2[deq]=b,c · ret_3[deq]=",
		"cas_1({0 1}) · ret_1[cas]=false · op_-1(()) · ret_+2[x]y]=[z]",
		"recover_x",
		"ret_1(5)",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		h, err := Parse(s)
		if err != nil {
			return
		}
		back, err := Parse(h.String())
		if err != nil {
			t.Fatalf("Parse(%q) = %s, whose rendering does not parse: %v", s, h, err)
		}
		if !back.Equal(h) {
			t.Fatalf("Parse(%q) = %s, whose rendering parses to %s", s, h, back)
		}
	})
}
