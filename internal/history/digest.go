package history

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
)

// The one canonical state encoder of the tree. Every identity the state
// cache keys on — the simulator's configuration fingerprint and every
// safety monitor's residual-state digest — is folded by the
// Fingerprinter below over the FNV-1a primitives here, and every value
// inside them is encoded by AppendCanonical. One home for the
// offset/prime constants, the byte fold and the tagged component
// encoding keeps the identities from silently diverging.

// The one sanctioned home of the raw constants: everything else folds
// through DigestSeed/DigestByte/DigestWord.
//
//slx:rawdigest canonical FNV primitive home
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// DigestSeed returns the FNV-1a offset basis, the initial value of
// every digest.
func DigestSeed() uint64 { return fnvOffset64 }

// DigestByte folds one byte into an FNV-1a digest.
func DigestByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// DigestWord folds a 64-bit word into an FNV-1a digest, little-endian.
func DigestWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = DigestByte(h, byte(v>>(8*i)))
	}
	return h
}

// Digester is the optional canonical-state hook of a safety monitor (and
// of the monitor sets exploration judges a path with), required by the
// state cache. StateDigest returns a 64-bit digest of the residual
// state — everything future Step verdicts can depend on — such that two
// monitors with equal digests accept and reject exactly the same event
// suffixes. ok=false means the current state cannot be digested; the
// exploration then neither looks the prefix up nor stores it.
//
// A digest must abstract away representation accidents (internal
// indices, the order state was accumulated in) but never semantic
// distinctions: equal digests with divergent future verdicts would let
// the cache prune a subtree containing a violation.
type Digester interface {
	StateDigest() (uint64, bool)
}

// Fingerprinter accumulates a canonical 64-bit digest (FNV-1a) of
// state. Writers must feed state components in a fixed, deterministic
// order; every component is written with a type tag so adjacent
// components of different kinds cannot collide by concatenation. The
// digest is deterministic across runs and processes, which is what lets
// exploration deduplicate states across replays and lets tests assert
// "same state, same fingerprint" across schedules.
//
// A Fingerprinter owns a reusable encoding buffer, so it must not be
// shared between goroutines, nor stored in state that is copied (a
// forked monitor): digest into a local Fingerprinter, and carry only
// running words (see HistoryDigest).
type Fingerprinter struct {
	h        uint64
	poisoned bool
	scratch  []byte // reused encoding buffer for Val
}

// NewFingerprinter returns an empty fingerprinter.
func NewFingerprinter() *Fingerprinter {
	return &Fingerprinter{h: DigestSeed()}
}

// Restart resumes f from the running word h — a Sum saved earlier, or
// DigestSeed for a fresh digest — unpoisoned, keeping the encoding
// buffer for reuse.
func (f *Fingerprinter) Restart(h uint64) { f.h, f.poisoned = h, false }

func (f *Fingerprinter) byteIn(b byte) {
	f.h = DigestByte(f.h, b)
}

func (f *Fingerprinter) tag(t byte) { f.byteIn(t) }

// Str folds a string component into the digest, length-delimited.
func (f *Fingerprinter) Str(s string) {
	f.tag('s')
	f.Int(len(s))
	for i := 0; i < len(s); i++ {
		f.byteIn(s[i])
	}
}

// Int folds an integer component into the digest.
func (f *Fingerprinter) Int(v int) {
	f.tag('i')
	f.Uint64(uint64(v))
}

// Bool folds a boolean component into the digest.
func (f *Fingerprinter) Bool(b bool) {
	f.tag('b')
	if b {
		f.byteIn(1)
	} else {
		f.byteIn(0)
	}
}

// Uint64 folds a 64-bit word into the digest.
func (f *Fingerprinter) Uint64(v uint64) {
	f.h = DigestWord(f.h, v)
}

// Val folds an arbitrary history value into the digest by its dynamic
// type and content (AppendCanonical: every node kind- and type-tagged,
// every variable-size component length-delimited, map entries sorted).
// Two values encode identically iff they are structurally equal by
// content, and two values of different dynamic types never collide
// with each other's content. It is NOT identity-aware: two distinct
// allocations with equal content encode the same, which is exactly why
// objects that compare pointers (CAS over fresh allocations) must not
// opt into simulator fingerprinting (sim.Fingerprintable).
//
// A value the encoder refuses — a non-nil pointer below the top level
// (identity, not content, and possibly cyclic), a channel or function,
// or a type whose fmt.Stringer/Formatter/error methods take over its
// rendering — poisons the digest instead: a poisoned simulator
// fingerprint yields no Result.Fingerprint, and a poisoned monitor
// digest makes the prefix uncacheable, never unsound.
func (f *Fingerprinter) Val(v Value) {
	f.tag('v')
	if v == nil {
		f.Str("<nil>")
		return
	}
	b, ok := AppendCanonical(f.scratch[:0], v)
	f.scratch = b // keep the grown buffer for the next value
	if !ok {
		f.poisoned = true
		return
	}
	f.tag('s')
	f.Int(len(b))
	for i := 0; i < len(b); i++ {
		f.byteIn(b[i])
	}
}

// Event folds one history event: kind, process, operation, object,
// argument and response value.
func (f *Fingerprinter) Event(e Event) {
	f.Int(int(e.Kind))
	f.Int(e.Proc)
	f.Str(e.Op)
	f.Str(e.Obj)
	f.Val(e.Arg)
	f.Val(e.Val)
}

// Set folds an order-independent set of component digests, each
// computed on its own (typically by restarting a Fingerprinter at
// DigestSeed per member): the number of distinct words, then the
// distinct words in ascending order, so neither the order the members
// were gathered in nor duplicates can change the digest. Set sorts and
// compacts words in place.
func (f *Fingerprinter) Set(words []uint64) {
	slices.Sort(words)
	words = slices.Compact(words)
	f.Int(len(words))
	for _, w := range words {
		f.Uint64(w)
	}
}

// Sum returns the digest of everything folded in so far.
func (f *Fingerprinter) Sum() uint64 { return f.h }

// Poisoned reports whether some folded value could not be canonically
// encoded (see Val); a poisoned digest must not be used as a state
// identity.
func (f *Fingerprinter) Poisoned() bool { return f.poisoned }

// HistoryDigest is a running canonical digest of an event sequence,
// maintained in O(1) per appended event — the residual-state digest of
// monitors whose state IS their history (the TM monitors, slx's batch
// monitor), which would otherwise re-encode the whole history on every
// explored prefix (O(depth²) along a DFS path). It holds only the
// running word and a poison flag, no encoding buffer, so forked
// monitors copy it by value and parallel workers stepping forks never
// share a buffer. The zero value digests the empty sequence.
type HistoryDigest struct {
	h        uint64 // running word; 0 until the first Append
	poisoned bool
}

// Append folds one event in (Fingerprinter.Event). An event the encoder
// refuses poisons the digest permanently.
func (d *HistoryDigest) Append(e Event) {
	if d.poisoned {
		return
	}
	f := Fingerprinter{h: d.word()}
	f.Event(e)
	d.h, d.poisoned = f.h, f.poisoned
}

// Sum returns the digest of the appended events; ok=false once an
// event poisoned it.
func (d *HistoryDigest) Sum() (uint64, bool) { return d.word(), !d.poisoned }

func (d *HistoryDigest) word() uint64 {
	if d.h == 0 {
		return DigestSeed()
	}
	return d.h
}

// LazyDigest is a HistoryDigest folded on demand: a cursor over an
// append-only history, whose Sum folds only the events appended since
// the previous call. A monitor whose state IS its history keeps one
// beside the history, so an event costs nothing until a state cache
// asks for the digest, and the value is the eager fold's exactly. Like
// HistoryDigest it is a plain value: a forked monitor copies it, and
// its later Sums fold the fork's own events from the shared cursor.
type LazyDigest struct {
	d HistoryDigest
	n int // events of the history folded into d
}

// Sum folds h's events past the cursor and returns the digest of h; h
// must extend the history of every earlier call.
func (l *LazyDigest) Sum(h History) (uint64, bool) {
	for _, e := range h[l.n:] {
		l.d.Append(e)
	}
	l.n = len(h)
	return l.d.Sum()
}

// AppendCanonical appends a canonical encoding of v to dst and reports
// whether v could be encoded. The encoding is injective on encodable
// values: every node carries its kind and dynamic type, and every
// variable-size component is length-delimited, so two values encode
// equal iff they are structurally equal by content — unlike fmt's %v,
// which space-joins composite elements ([]string{"x y"} and
// []string{"x","y"} both print "[x y]"). Map entries are sorted by
// their encodings, so insertion order cannot leak in.
//
// ok=false (the returned slice may hold a partial encoding — discard
// it) when v contains a component whose content cannot be canonically
// encoded:
//
//   - a non-nil pointer below the top level (content encodings equate
//     distinct allocations, which is exactly what pointer-identity
//     state must not allow — see sim.Fingerprintable — and following
//     them could cycle); a nil pointer is content (it encodes as nil),
//     and the one top-level pointer to a composite is dereferenced;
//   - channels, functions, uintptrs, unsafe pointers;
//   - types implementing fmt.Formatter, fmt.Stringer, or error, whose
//     methods take over their fmt rendering — callers that mix encoded
//     values with fmt output could otherwise be fooled by a method
//     that formats an address.
func AppendCanonical(dst []byte, v Value) ([]byte, bool) {
	if v == nil {
		return append(dst, 'z'), true
	}
	return appendCanonical(dst, reflect.ValueOf(v), true)
}

var (
	formatterType = reflect.TypeOf((*fmt.Formatter)(nil)).Elem()
	stringerType  = reflect.TypeOf((*fmt.Stringer)(nil)).Elem()
	errorType     = reflect.TypeOf((*error)(nil)).Elem()
)

// appendLen appends a length or word as 8 little-endian bytes.
func appendLen(dst []byte, n int) []byte { return appendWord(dst, uint64(n)) }

func appendWord(dst []byte, v uint64) []byte {
	for i := 0; i < 8; i++ {
		dst = append(dst, byte(v>>(8*i)))
	}
	return dst
}

// appendCanonical encodes one node: kind byte, length-delimited type
// name, then kind-specific content. top marks the root, the only
// position where a non-nil pointer is followed. Cycles would need a
// non-nil nested pointer, which fails before recursing, so the walk
// terminates.
func appendCanonical(dst []byte, v reflect.Value, top bool) ([]byte, bool) {
	t := v.Type()
	if t.Implements(formatterType) || t.Implements(stringerType) || t.Implements(errorType) {
		return dst, false
	}
	name := t.String()
	dst = append(dst, byte(t.Kind()))
	dst = appendLen(dst, len(name))
	dst = append(dst, name...)
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(dst, 1), true
		}
		return append(dst, 0), true
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return appendWord(dst, uint64(v.Int())), true
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return appendWord(dst, v.Uint()), true
	case reflect.Float32, reflect.Float64:
		return appendWord(dst, math.Float64bits(v.Float())), true
	case reflect.Complex64, reflect.Complex128:
		c := v.Complex()
		dst = appendWord(dst, math.Float64bits(real(c)))
		return appendWord(dst, math.Float64bits(imag(c))), true
	case reflect.String:
		dst = appendLen(dst, v.Len())
		return append(dst, v.String()...), true
	case reflect.Pointer:
		if v.IsNil() {
			return append(dst, 0), true
		}
		if !top {
			return dst, false
		}
		switch v.Elem().Kind() {
		case reflect.Struct, reflect.Array, reflect.Slice, reflect.Map:
			return appendCanonical(append(dst, 1), v.Elem(), false)
		default:
			return dst, false
		}
	case reflect.Interface:
		if v.IsNil() {
			return append(dst, 0), true
		}
		return appendCanonical(append(dst, 1), v.Elem(), false)
	case reflect.Struct:
		ok := true
		for i := 0; i < t.NumField() && ok; i++ {
			dst, ok = appendCanonical(dst, v.Field(i), false)
		}
		return dst, ok
	case reflect.Array, reflect.Slice:
		dst = appendLen(dst, v.Len())
		ok := true
		for i := 0; i < v.Len() && ok; i++ {
			dst, ok = appendCanonical(dst, v.Index(i), false)
		}
		return dst, ok
	case reflect.Map:
		dst = appendLen(dst, v.Len())
		pairs := make([][]byte, 0, v.Len())
		iter := v.MapRange()
		for iter.Next() {
			p, ok := appendCanonical(nil, iter.Key(), false)
			if !ok {
				return dst, false
			}
			p, ok = appendCanonical(p, iter.Value(), false)
			if !ok {
				return dst, false
			}
			pairs = append(pairs, p)
		}
		sort.Slice(pairs, func(i, j int) bool { return bytes.Compare(pairs[i], pairs[j]) < 0 })
		for _, p := range pairs {
			dst = appendLen(dst, len(p))
			dst = append(dst, p...)
		}
		return dst, true
	default:
		// Chan, func, uintptr, unsafe.Pointer, invalid.
		return dst, false
	}
}
