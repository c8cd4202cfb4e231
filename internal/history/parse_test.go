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
