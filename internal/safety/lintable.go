package safety

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/history"
)

// linTable is the interning table a root LinMonitor shares with every
// fork of it: spec states, response values and invoked operations get
// dense uint32 ids, SeqSpec.Apply runs once per (state, operation) pair,
// and promise sets are hash-consed lists whose insert and remove edits
// are memoized. A configuration is then two machine words, compared by
// value and copied without write barriers.
//
// Forks of one lineage step on several goroutines (parallel
// exploration, slxd's executor), so every use of the table, the closure
// search included, holds mu. Ids are local to one table: two jobs, or
// two workers' roots, number the same state differently, so nothing
// that leaves the monitor — a digest above all, which a visited tier
// shares across workers and jobs — may fold an id; digests fold the
// content the ids stand for.
type linTable struct {
	mu     sync.Mutex
	spec   SeqSpec
	states interner[any]
	vals   interner[any]
	ops    interner[linOp]
	cells  interner[promCell]
	memo   [][]linMemo // state id → the transitions applied there
	trs    []linTr     // the memoized transitions, ranged by memo
	// edits[set] memoizes set's edits: inserting {slot, val} into set,
	// or removing slot when val is noPromise, yields set next.
	edits [][]promCell
	// Content words by id, filled in as digests ask for them: each
	// state's fingerprint, each response value's and each operation's.
	stateWords, valWords, opWords []contentWord
	f                             *history.Fingerprinter
	sc                            linScratch
}

// linOp is an invoked operation: the arguments of SeqSpec.Apply.
type linOp struct {
	proc      int
	name, obj string
	arg       history.Value
}

type (
	linTr       struct{ next, resp uint32 } // a transition's next state and response
	linMemo     struct{ op, lo, hi uint32 } // op's transitions at a state: trs[lo:hi]
	contentWord struct {                    // an interned item's digest word, once computed
		word     uint64
		ok, done bool
	}
)

// promCell is one cell of an interned promise set: the promise that
// slot's operation responds val, followed by the set next, whose slots
// are all above slot. Set id 0 is the empty set and set id i > 0 the
// list starting at cell i−1, so equal sets have equal ids.
type promCell struct {
	slot      int32
	val, next uint32
}

// noPromise is the value id no value has, the removal mark of an edit.
const noPromise = ^uint32(0)

func newLinTable(spec SeqSpec) *linTable {
	t := &linTable{spec: spec, edits: make([][]promCell, 1), f: history.NewFingerprinter()}
	t.states.canHash, t.vals.canHash = hashable, hashable
	t.ops.canHash = func(o linOp) bool { return hashable(o.arg) }
	return t
}

// state interns a spec state.
func (t *linTable) state(st State) uint32 {
	id := t.states.id(st)
	if int(id) == len(t.memo) {
		t.memo = append(t.memo, nil)
	}
	return id
}

// op interns the operation e invokes.
func (t *linTable) op(e history.Event) uint32 {
	return t.ops.id(linOp{proc: e.Proc, name: e.Op, obj: e.Obj, arg: e.Arg})
}

// apply returns op's transitions at state st, applying the spec the
// first time the pair is asked for. The returned slice is shared.
func (t *linTable) apply(st, op uint32) []linTr {
	for _, m := range t.memo[st] {
		if m.op == op {
			return t.trs[m.lo:m.hi:m.hi]
		}
	}
	o := t.ops.items[op]
	lo := uint32(len(t.trs))
	for _, tr := range t.spec.Apply(t.states.items[st], o.proc, o.name, o.obj, o.arg) {
		t.trs = append(t.trs, linTr{next: t.state(tr.Next), resp: t.vals.id(tr.Resp)})
	}
	hi := uint32(len(t.trs))
	t.memo[st] = append(t.memo[st], linMemo{op: op, lo: lo, hi: hi})
	return t.trs[lo:hi:hi]
}

// promised returns the response set promises for slot, if any.
func (t *linTable) promised(set uint32, slot int) (uint32, bool) {
	for ; set != 0; set = t.cells.items[set-1].next {
		if c := t.cells.items[set-1]; c.slot == int32(slot) {
			return c.val, true
		}
	}
	return 0, false
}

// edit returns set with the promise slot → val inserted, or with slot's
// promise removed when val is noPromise.
func (t *linTable) edit(set uint32, slot int, val uint32) uint32 {
	for _, e := range t.edits[set] {
		if e.slot == int32(slot) && e.val == val {
			return e.next
		}
	}
	to := t.rebuild(set, int32(slot), val)
	t.edits[set] = append(t.edits[set], promCell{slot: int32(slot), val: val, next: to})
	return to
}

// rebuild computes an edit by re-consing the cells below slot.
func (t *linTable) rebuild(set uint32, slot int32, val uint32) uint32 {
	if set != 0 {
		if c := t.cells.items[set-1]; c.slot < slot {
			c.next = t.rebuild(c.next, slot, val)
			return t.cons(c)
		} else if c.slot == slot {
			set = c.next
		}
	}
	if val == noPromise {
		return set
	}
	return t.cons(promCell{slot: slot, val: val, next: set})
}

func (t *linTable) cons(c promCell) uint32 {
	id := t.cells.id(c) + 1
	if int(id) == len(t.edits) {
		t.edits = append(t.edits, nil)
	}
	return id
}

// configDigest digests one configuration: its state's word, continued
// with its promised responses in rank order, each a value word keyed by
// its operation's rank. The promises name exactly the slots the mask
// holds, so they stand in for the mask.
func (t *linTable) configDigest(c linCfg, rank *[maxPendingOps]uint8) (uint64, bool) {
	st, ok := t.word(&t.stateWords, c.st, func(f *history.Fingerprinter) { f.Val(t.states.items[c.st]) })
	if !ok || c.proms == 0 {
		return st, ok
	}
	type promise struct {
		rank uint8
		word uint64
	}
	// The value words come first: folding a new one restarts the
	// table's encoder.
	var buf [8]promise
	byRank := buf[:0]
	for set := c.proms; set != 0; set = t.cells.items[set-1].next {
		p := t.cells.items[set-1]
		w, ok := t.word(&t.valWords, p.val, func(f *history.Fingerprinter) { f.Val(t.vals.items[p.val]) })
		if !ok {
			return 0, false
		}
		byRank = append(byRank, promise{rank: rank[p.slot], word: w})
	}
	slices.SortFunc(byRank, func(a, b promise) int { return cmp.Compare(a.rank, b.rank) })
	f := t.f
	f.Restart(st)
	for _, p := range byRank {
		f.Int(int(p.rank))
		f.Uint64(p.word)
	}
	return f.Sum(), true
}

// opDigest returns the content word of interned operation op: its
// process, name, object and argument. ok=false when the argument
// cannot be canonically encoded.
func (t *linTable) opDigest(op uint32) (uint64, bool) {
	return t.word(&t.opWords, op, func(f *history.Fingerprinter) {
		o := &t.ops.items[op]
		f.Int(o.proc)
		f.Str(o.name)
		f.Str(o.obj)
		f.Val(o.arg)
	})
}

// word returns the content word of item id of one interner, memoized in
// words: fold writes the item into the table's encoder, restarted at
// the seed, the first time the word is asked for.
func (t *linTable) word(words *[]contentWord, id uint32, fold func(*history.Fingerprinter)) (uint64, bool) {
	for len(*words) <= int(id) {
		*words = append(*words, contentWord{})
	}
	w := &(*words)[id]
	if !w.done {
		t.f.Restart(history.DigestSeed())
		fold(t.f)
		*w = contentWord{word: t.f.Sum(), ok: !t.f.Poisoned(), done: true}
	}
	return w.word, w.ok
}

// internScan is how many items an interner scans linearly before it
// builds a map, so tiny jobs never build one.
const internScan = 16

// interner numbers distinct values densely in order of first appearance.
// A value canHash rejects (nil: it accepts all) is never compared: each
// id call gives it a fresh id, equal to no other.
type interner[T comparable] struct {
	items   []T
	index   map[T]uint32
	canHash func(T) bool
}

// id returns v's id, numbering v if it is new.
func (in *interner[T]) id(v T) uint32 {
	ok := in.canHash == nil || in.canHash(v)
	if ok && in.index != nil {
		if id, found := in.index[v]; found {
			return id
		}
	} else if ok {
		// v's nested dynamic types are all comparable, so comparing it
		// with any item never panics.
		for i := range in.items {
			if in.items[i] == v {
				return uint32(i)
			}
		}
	}
	id := uint32(len(in.items))
	in.items = append(in.items, v)
	switch {
	case !ok:
	case in.index != nil:
		in.index[v] = id
	case len(in.items) > internScan:
		in.index = make(map[T]uint32, 2*len(in.items))
		for i, x := range in.items {
			if in.canHash == nil || in.canHash(x) {
				in.index[x] = uint32(i)
			}
		}
	}
	return id
}

// hashable reports whether v can key a map, which hashing panics on
// exactly where comparing v with itself does: where some dynamic type
// in v, its own or one nested in an interface, is not comparable.
func hashable(v any) (ok bool) {
	switch v.(type) {
	case nil, bool, int, string:
		return true
	}
	defer func() { ok = recover() == nil }()
	return equal(v, v) || true // a NaN, unequal to itself, still hashes
}

func equal(a, b any) bool { return a == b }
