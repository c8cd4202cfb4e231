package history

import (
	"bytes"
	"reflect"
	"testing"
)

// TestFingerprinterGolden pins the encoder's output on a fixed component
// sequence. Every state identity — simulator fingerprints, monitor
// digests, cache keys — is folded by this encoder, so a change to the
// fold or the tagging must be a deliberate one that updates this value.
func TestFingerprinterGolden(t *testing.T) {
	f := NewFingerprinter()
	f.Str("r")
	f.Int(3)
	f.Bool(true)
	f.Val([]string{"x y"})
	f.Val(nil)
	f.Val(map[string]int{"a": 1, "b": 2})
	f.Uint64(42)
	const want = 7418959575029620329
	if f.Poisoned() || f.Sum() != want {
		t.Fatalf("Sum() = %d (poisoned %v), want %d", f.Sum(), f.Poisoned(), uint64(want))
	}
}

// TestFingerprinterSet: a set fold depends on the members alone — not
// on their order, not on duplicates — and on every member.
func TestFingerprinterSet(t *testing.T) {
	sum := func(words ...uint64) uint64 {
		f := NewFingerprinter()
		f.Set(words)
		return f.Sum()
	}
	if sum(1, 2, 3) != sum(3, 1, 2, 1) {
		t.Error("set fold depends on member order or duplicates")
	}
	if sum(1, 2) == sum(1, 2, 3) || sum(1, 2) == sum(1, 3) {
		t.Error("set fold equates different member sets")
	}
}

// TestHistoryDigestIsEventFold: the running history digest is the Event
// fold of the sequence, so appending event by event and folding the
// events into one Fingerprinter agree, and a copy taken mid-way (a
// forked monitor) continues independently.
func TestHistoryDigestIsEventFold(t *testing.T) {
	h := History{Invoke(1, "w", []string{"x y"}), Response(1, "w", OK), Crash(2)}
	var d HistoryDigest
	f := NewFingerprinter()
	var fork HistoryDigest
	for i, e := range h {
		d.Append(e)
		f.Event(e)
		if i == 0 {
			fork = d
		}
	}
	if got, ok := d.Sum(); !ok || got != f.Sum() {
		t.Fatalf("running digest %d (ok %v) != one-pass fold %d", got, ok, f.Sum())
	}
	var one HistoryDigest
	one.Append(h[0])
	if fork != one {
		t.Fatal("a copy taken after the first event saw later appends")
	}
}

// TestLazyDigestIsEagerFold: a LazyDigest summed at any cadence — after
// every event, after runs of events, never until the end — equals the
// eager HistoryDigest of the same prefix, poisoned prefixes included,
// and a copy taken mid-way (a forked monitor) folds its own extension
// from the shared cursor.
func TestLazyDigestIsEagerFold(t *testing.T) {
	events := []Event{
		Invoke(1, "w", []string{"x y"}), Response(1, "w", OK), Crash(2), Recover(2),
		Invoke(2, "r", nil), Response(2, "r", 1), Response(2, "r", "1"),
	}
	poison := Invoke(3, "w", fuzzBox{P: &fuzzPair{}})
	poisoned := 0
	for seed := 0; seed < 200; seed++ {
		var h History
		var lazy LazyDigest
		var eager HistoryDigest
		var fork LazyDigest
		var forkEager HistoryDigest
		var forkH History
		for i := 0; i < 12; i++ {
			e := events[(seed*7+i*3)%len(events)]
			if seed%11 == 0 && i == 9 {
				e = poison
			}
			h = append(h, e)
			eager.Append(e)
			if i == seed%12 {
				forkH = append(h[:len(h):len(h)], Crash(4))
				fork, forkEager = lazy, eager
				forkEager.Append(Crash(4))
			}
			if (seed>>uint(i%5))&1 == 0 {
				if got, want := pair(lazy.Sum(h)), pair(eager.Sum()); got != want {
					t.Fatalf("seed %d: lazy %v != eager %v after %d events", seed, got, want, len(h))
				}
			}
		}
		got, want := pair(lazy.Sum(h)), pair(eager.Sum())
		if got != want {
			t.Fatalf("seed %d: lazy %v != eager %v at the end", seed, got, want)
		}
		if want[1] == 0 {
			poisoned++
		}
		if got, want := pair(fork.Sum(forkH)), pair(forkEager.Sum()); got != want {
			t.Fatalf("seed %d: fork's lazy %v != eager %v", seed, got, want)
		}
	}
	if poisoned == 0 {
		t.Fatal("no history poisoned its digest")
	}
}

// pair packs a (digest, ok) result for comparison.
func pair(d uint64, ok bool) [2]uint64 {
	if ok {
		return [2]uint64{d, 1}
	}
	return [2]uint64{d, 0}
}

// fuzzPair and fuzzBox are the fuzz grammar's struct shapes: a
// string+int struct, and a struct holding a pointer, which the encoder
// must refuse when non-nil (pointer identity is not content).
type fuzzPair struct {
	S string
	N int
}

type fuzzBox struct{ P *fuzzPair }

// fuzzInt and fuzzString are named scalar types: their type names are
// part of their encodings, so they must take the reflective walk and
// never encode like a plain int or string.
type (
	fuzzInt    int
	fuzzString string
)

// fuzzReader decodes values from fuzz bytes over a small grammar; reads
// past the end yield zeros.
type fuzzReader struct{ b []byte }

func (r *fuzzReader) next() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *fuzzReader) int() int { return int(int8(r.next())) }

func (r *fuzzReader) str() string {
	n := min(int(r.next()%16), len(r.b))
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *fuzzReader) pair() fuzzPair {
	s := r.str()
	return fuzzPair{S: s, N: r.int()}
}

// value decodes one value; nested reports a non-nil pointer below the
// top level. Slices and maps are always non-nil, so DeepEqual (which
// tells nil from empty) and the encoding (which does not) agree.
func (r *fuzzReader) value() (v Value, nested bool) {
	switch r.next() % 12 {
	case 0:
		return r.int(), false
	case 1:
		return r.str(), false
	case 2:
		return r.next()&1 == 1, false
	case 3:
		return nil, false
	case 4:
		s := make([]string, r.next()%4)
		for i := range s {
			s[i] = r.str()
		}
		return s, false
	case 5:
		a := r.str()
		return [2]string{a, r.str()}, false
	case 6:
		return r.pair(), false
	case 7:
		n := int(r.next() % 4)
		m := make(map[string]int, n)
		for i := 0; i < n; i++ {
			k := r.str()
			m[k] = r.int()
		}
		return m, false
	case 8:
		p := r.pair()
		return &p, false
	case 9:
		if r.next()&1 == 0 {
			return fuzzBox{}, false
		}
		p := r.pair()
		return fuzzBox{P: &p}, true
	case 10:
		return fuzzInt(r.int()), false
	default:
		return fuzzString(r.str()), false
	}
}

// FuzzAppendCanonical checks the canonical encoding's contract on pairs
// of decoded values: a nested non-nil pointer is refused and everything
// else encodes, deterministically, with equal encodings exactly when
// the values are deeply equal, and every value encodes to the same
// bytes whether AppendCanonical takes its reflection-free path for
// exact scalars or the reflective walk. The seed corpus holds the
// collisions %v-based encodings once had ({"x y"} vs {"x","y"},
// "a,string=b" vs {"a","b"}, "a/b"+"c" vs "a"+"b/c", 1 vs "1"), the
// scalars the fast path takes (int, string, bool, nil) and named
// scalars beside the plain ones they must not encode like.
func FuzzAppendCanonical(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{b: data}
		a, nestedA := r.value()
		b, nestedB := r.value()
		ea, okA := AppendCanonical(nil, a)
		eb, okB := AppendCanonical(nil, b)
		for _, c := range []struct {
			v   Value
			enc []byte
			ok  bool
		}{{a, ea, okA}, {b, eb, okB}} {
			if c.v == nil {
				continue // the walk needs a dynamic type; nil encodes as 'z' on every path
			}
			walk, ok := appendCanonical(nil, reflect.ValueOf(c.v), true)
			if ok != c.ok || (ok && !bytes.Equal(walk, c.enc)) {
				t.Fatalf("%#v: AppendCanonical %x (ok %v), reflective walk %x (ok %v)", c.v, c.enc, c.ok, walk, ok)
			}
		}
		if okA == nestedA || okB == nestedB {
			t.Fatalf("only nested pointers may be refused: %#v ok=%v, %#v ok=%v", a, okA, b, okB)
		}
		if !okA || !okB {
			return
		}
		if again, _ := AppendCanonical(nil, a); !bytes.Equal(ea, again) {
			t.Fatalf("encoding of %#v is not deterministic", a)
		}
		if bytes.Equal(ea, eb) != reflect.DeepEqual(a, b) {
			t.Fatalf("equal encodings %v, DeepEqual %v: %#v vs %#v", bytes.Equal(ea, eb), reflect.DeepEqual(a, b), a, b)
		}
	})
}
