package base

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/history"
)

// TestMemWipe: a crash reverts durable caches to their flushed halves
// and local cells to their initial values; shared cells keep theirs.
func TestMemWipe(t *testing.T) {
	s := &countAccessor{}
	m := new(Mem)
	r := NewRegister(m, "r", 0)
	d := NewDurableRegister(m, "d", 0)
	l := NewLocal(m, "init")
	r.WriteW(s, 1)
	d.WriteW(s, 2)
	d.FlushW(s)
	d.WriteW(s, 3)
	l.Set("live")
	m.Wipe()
	if got := r.ReadW(s); got != 1 {
		t.Errorf("shared cell after Wipe = %v, want 1", got)
	}
	if got := d.Peek(); got != 2 {
		t.Errorf("durable cache after Wipe = %v, want the flushed 2", got)
	}
	if got := l.Get(); got != "init" {
		t.Errorf("local cell after Wipe = %v, want its initial value", got)
	}
	if s.steps != 5 {
		t.Errorf("steps = %d, want 5 (local cells and Wipe are not steps)", s.steps)
	}
}

// TestMemLazyRestore: a lazy group allocated after a snapshot is
// forgotten by restoring it and allocated again at the same indices;
// one allocated before it survives with its identity.
func TestMemLazyRestore(t *testing.T) {
	s := &countAccessor{}
	m := new(Mem)
	allocs := 0
	group := func(key string) *Register {
		return Lazy(m, key, func() *Register {
			allocs++
			return NewRegister(m, "g:"+key, 0)
		})
	}
	a := group("a")
	mark := m.Snapshot()
	b := group("b")
	b.WriteW(s, 5)
	if group("a") != a || group("b") != b || allocs != 2 {
		t.Fatalf("lookups re-allocated: %d allocations", allocs)
	}
	m.Restore(mark)
	if group("a") != a {
		t.Error("restore dropped a group allocated before the snapshot")
	}
	b2 := group("b")
	if b2 == b || allocs != 3 {
		t.Errorf("restore kept a group allocated after the snapshot (%d allocations)", allocs)
	}
	if b2.i != b.i || b2.ReadW(s) != 0 {
		t.Errorf("re-allocated group at cell %d holding %v, want cell %d holding 0", b2.i, b2.ReadW(s), b.i)
	}
}

// fpPart is an attached part with a fingerprint.
type fpPart struct{ Mem }

func (p *fpPart) Fingerprint(f *history.Fingerprinter) { p.Fold(f) }

// TestMemParts: attached parts are captured, restored and folded with
// the memory; folding a part without a Fingerprint panics.
func TestMemParts(t *testing.T) {
	s := &countAccessor{}
	m := new(Mem)
	NewRegister(m, "r", 0)
	part := &fpPart{}
	pr := NewRegister(&part.Mem, "p", 0)
	Attach(m, part)
	mark, before := m.Snapshot(), foldOf(m)
	pr.WriteW(s, 9)
	if foldOf(m) == before {
		t.Error("a part's write did not change the owner's fold")
	}
	m.Restore(mark)
	if got := pr.ReadW(s); got != 0 || foldOf(m) != before {
		t.Errorf("after Restore the part holds %v, want 0", got)
	}

	bare := new(Mem)
	Attach(bare, new(Mem))
	defer func() {
		if recover() == nil {
			t.Error("Fold over a part without Fingerprint did not panic")
		}
	}()
	foldOf(bare)
}

// memRef is FuzzMemRestore's reference model: a deep copy of what a Mem
// must hold.
type memRef struct {
	vals  []Value
	inits []Value
	kinds []cellKind
	lazy  []string
}

func (r memRef) clone() memRef {
	return memRef{vals: slices.Clone(r.vals), inits: slices.Clone(r.inits), kinds: slices.Clone(r.kinds), lazy: slices.Clone(r.lazy)}
}

// memHandle writes cells of the fuzzed memory through one object.
type memHandle struct {
	i     int              // the object's first cell (a durable register's cache)
	dur   *DurableRegister // durable registers only
	write func(arg byte) (cell int, v Value)
}

// memMark is one mark on FuzzMemRestore's stack.
type memMark struct {
	snap    any
	ref     memRef
	fold    uint64
	handles int
}

// FuzzMemRestore decodes its input into operations on one Mem —
// allocate an object of any kind (a register, durable register, local
// cell, CAS, test-and-set, fetch-and-add or snapshot); look up a lazy
// group; write through an object; flush a durable cell; Wipe; mark;
// restore to a mark on the stack — and checks the memory against a
// deep-copy reference model
// recorded at each mark: after every restore the cell values, the
// durable halves, the cell count, the lazy keys and the Fold digest
// must be the mark's. Marks stay on the stack after a restore (only
// those above it are popped), so restoring the same mark again after
// more writes checks that Restore never adopts the snapshot.
func FuzzMemRestore(f *testing.F) {
	f.Add([]byte{0, 1, 7, 4, 0, 9, 8, 0})
	f.Add([]byte{1, 3, 7, 4, 0, 5, 5, 0, 6, 0, 8, 0, 4, 0, 2, 8, 0})
	f.Add([]byte{3, 1, 7, 0, 3, 2, 3, 5, 4, 1, 7, 0, 8, 0, 3, 2, 8, 1})
	f.Add([]byte{2, 4, 7, 0, 4, 0, 1, 6, 0, 8, 0, 8, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		acc := &countAccessor{}
		m := new(Mem)
		var ref memRef
		var handles []memHandle
		var stack []memMark
		check := func(when string, want memMark) {
			t.Helper()
			if len(m.vals) != len(want.ref.vals) {
				t.Fatalf("%s: %d cells, want %d", when, len(m.vals), len(want.ref.vals))
			}
			for i, v := range want.ref.vals {
				if m.vals[i] != v || m.kinds[i] != want.ref.kinds[i] {
					t.Fatalf("%s: cell %d holds %v (kind %d), want %v (kind %d)", when, i, m.vals[i], m.kinds[i], v, want.ref.kinds[i])
				}
			}
			for _, h := range handles[:want.handles] {
				if h.dur != nil && h.dur.PeekDurable() != want.ref.vals[h.i+1] {
					t.Fatalf("%s: durable half of cell %d is %v, want %v", when, h.i, h.dur.PeekDurable(), want.ref.vals[h.i+1])
				}
			}
			keys := make([]string, len(m.lazy))
			for i, g := range m.lazy {
				keys[i] = g.key
			}
			if !slices.Equal(keys, want.ref.lazy) {
				t.Fatalf("%s: lazy keys %v, want %v", when, keys, want.ref.lazy)
			}
			if got := foldOf(m); got != want.fold {
				t.Fatalf("%s: fold %#x, want %#x", when, got, want.fold)
			}
		}
		add := func(kind cellKind, v Value) int {
			ref.vals = append(ref.vals, v)
			ref.inits = append(ref.inits, v)
			ref.kinds = append(ref.kinds, kind)
			return len(ref.vals) - 1
		}
		// alloc allocates one object of kind arg%7 — register, durable
		// register, local cell, CAS, test-and-set, fetch-and-add or a
		// two-slot snapshot — holding v, and a handle writing it.
		alloc := func(arg byte, v int) {
			name := fmt.Sprintf("c%d", len(ref.vals))
			h := memHandle{i: len(ref.vals)}
			switch arg % 7 {
			case 0:
				r := NewRegister(m, name, v)
				add(shared, v)
				h.write = func(a byte) (int, Value) { r.WriteW(acc, int(a)); return h.i, int(a) }
			case 1:
				h.dur = NewDurableRegister(m, name, v)
				add(cache, v)
				add(flushed, v)
				h.write = func(a byte) (int, Value) { h.dur.WriteW(acc, int(a)); return h.i, int(a) }
			case 2:
				l := NewLocal(m, v)
				add(local, v)
				h.write = func(a byte) (int, Value) { l.Set(int(a)); return h.i, int(a) }
			case 3:
				c := NewCAS(m, name, v)
				add(shared, v)
				h.write = func(a byte) (int, Value) {
					if a%2 == 0 {
						c.SwapW(acc, int(a))
					} else {
						c.CompareAndSwapW(acc, ref.vals[h.i], int(a))
					}
					return h.i, int(a)
				}
			case 4:
				t := NewTAS(m, name)
				add(shared, false)
				h.write = func(a byte) (int, Value) {
					if a%2 == 0 {
						t.ResetW(acc)
						return h.i, false
					}
					t.TestAndSetW(acc)
					return h.i, true
				}
			case 5:
				f := NewFetchAdd(m, name, v)
				add(shared, v)
				h.write = func(a byte) (int, Value) {
					f.AddW(acc, int(a)+1)
					return h.i, ref.vals[h.i].(int) + int(a) + 1
				}
			case 6:
				sn := NewSnapshot(m, name, 2, v)
				add(shared, v)
				add(shared, v)
				h.write = func(a byte) (int, Value) { sn.UpdateW(acc, int(a%2), int(a)); return h.i + int(a%2), int(a) }
			}
			handles = append(handles, h)
		}
		for k := 0; k+1 < len(in); k += 2 {
			op, arg := in[k]%9, in[k+1]
			switch op {
			case 0, 1, 2:
				alloc(arg, int(op)*100+int(arg))
			case 3:
				key := fmt.Sprintf("k%d", arg%4)
				if !slices.Contains(ref.lazy, key) {
					ref.lazy = append(ref.lazy, key)
				}
				Lazy(m, key, func() int {
					for j := 0; j < int(arg%3); j++ {
						alloc(arg/4+byte(j), 0)
					}
					return 0
				})
			case 4:
				if len(handles) == 0 {
					continue
				}
				i, v := handles[int(arg)%len(handles)].write(arg / 8)
				ref.vals[i] = v
			case 5:
				if len(handles) == 0 {
					continue
				}
				if h := handles[int(arg)%len(handles)]; h.dur != nil {
					h.dur.FlushW(acc)
					ref.vals[h.i+1] = ref.vals[h.i]
				}
			case 6:
				m.Wipe()
				for i, kind := range ref.kinds {
					switch kind {
					case cache:
						ref.vals[i] = ref.vals[i+1]
					case local:
						ref.vals[i] = ref.inits[i]
					}
				}
			case 7:
				mark := memMark{snap: m.Snapshot(), ref: ref.clone(), fold: foldOf(m), handles: len(handles)}
				check("mark", mark)
				stack = append(stack, mark)
			case 8:
				if len(stack) == 0 {
					continue
				}
				stack = stack[:int(arg)%len(stack)+1]
				mark := stack[len(stack)-1]
				m.Restore(mark.snap)
				ref = mark.ref.clone()
				handles = handles[:mark.handles]
				check("restore", mark)
				m.Restore(mark.snap)
				check("second restore", mark)
			}
		}
	})
}
