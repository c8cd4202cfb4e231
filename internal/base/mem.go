package base

import "repro/internal/history"

// cellKind is what a cell models: it decides what a crash does to the
// cell and how Fold encodes it.
type cellKind uint8

const (
	shared  cellKind = iota // a base object's cell, modeled durable
	cache                   // a durable register's volatile cache; its flushed half is the next cell
	flushed                 // a durable register's flushed half, folded with its cache
	local                   // process-local state: no footprint, volatile
)

// Mem holds an object's state as cells, in allocation order: the shared
// cells of its base objects and its local cells. An object embeds it by
// value; the promoted Snapshot and Restore are its sim.Snapshottable
// hook, so nothing the object changes after its constructor returns may
// live outside cells. Cells allocated mid-run (through Lazy, or by a
// constructor called from a Begin or Step) are recorded in path order,
// so a Restore drops exactly the cells allocated after its snapshot.
// Objects built from other Mem-backed objects Attach them as parts.
type Mem struct {
	vals  []Value    // every cell's current value
	names []string   // footprint name; "" for local cells
	kinds []cellKind // what each cell models
	inits []Value    // what a crash resets a local cell to
	lazy  []lazyGroup
	parts []Part
	last  *memSnap // the current state's snapshot until anything changes; never set with parts
}

// lazyGroup is one cell group allocated by Lazy.
type lazyGroup struct {
	key string
	val any
}

// Part is state with its own snapshot hook that an object's memory
// composes: Snapshot, Restore and Fold visit the attached parts in
// attachment order. A part Fold visits must also have a Fingerprint
// method.
type Part interface {
	Snapshot() any
	Restore(any)
}

// memSnap is a captured memory.
type memSnap struct {
	cells []Value // the n cells, then one snapshot per attached part
	n     int
	lazy  int // the number of lazy groups
}

// alloc appends one cell and returns it.
func (m *Mem) alloc(name string, kind cellKind, init Value) cell {
	m.vals = append(m.vals, init)
	m.names = append(m.names, name)
	m.kinds = append(m.kinds, kind)
	m.inits = append(m.inits, init)
	m.last = nil
	return cell{m, len(m.vals) - 1}
}

// Snapshot captures the cells, the lazy groups and each attached part.
// Stored values are immutable records (replaced, never mutated in
// place), so the copied values are the state, pointer identity included.
// Snapshots are immutable too: until a cell changes, a memory without
// parts returns the same one again, and restoring it is free.
func (m *Mem) Snapshot() any {
	if m.last != nil {
		return m.last
	}
	n := len(m.vals)
	s := &memSnap{cells: make([]Value, n, n+len(m.parts)), n: n, lazy: len(m.lazy)}
	copy(s.cells, m.vals)
	for _, p := range m.parts {
		s.cells = append(s.cells, p.Snapshot())
	}
	if len(m.parts) == 0 {
		m.last = s
	}
	return s
}

// Restore reinstates a snapshot taken on the current execution path:
// cells and lazy groups allocated since are dropped, and the surviving
// cells and the parts are copied back. The snapshot is never adopted,
// so it can be restored any number of times.
func (m *Mem) Restore(v any) {
	s := v.(*memSnap)
	if s == m.last {
		return
	}
	n := s.n
	if n > len(m.vals) {
		panic("base: Restore of a snapshot that is not on the current path")
	}
	m.vals, m.names, m.kinds, m.inits = m.vals[:n], m.names[:n], m.kinds[:n], m.inits[:n]
	copy(m.vals, s.cells[:n])
	m.lazy = m.lazy[:s.lazy]
	parts := s.cells[n:]
	m.parts = m.parts[:len(parts)]
	for i, p := range m.parts {
		p.Restore(parts[i])
	}
	if len(m.parts) == 0 {
		m.last = s
	}
}

// Fold writes the memory's canonical state into f: the cell count,
// then each cell's name and value in allocation order (a durable
// register's cache with its flushed half), then each attached part's
// Fingerprint. It is the whole body of a Mem-backed object's
// Fingerprint hook, so it panics on a part without one: such an object
// must not opt into fingerprints.
func (m *Mem) Fold(f *history.Fingerprinter) {
	f.Int(len(m.vals))
	for i, k := range m.kinds {
		if k == flushed {
			continue
		}
		f.Str(m.names[i])
		f.Val(m.vals[i])
		if k == cache {
			f.Val(m.vals[i+1])
		}
	}
	for _, p := range m.parts {
		p.(interface{ Fingerprint(*history.Fingerprinter) }).Fingerprint(f)
	}
}

// Wipe is a crash: durable registers' caches revert to their flushed
// halves and local cells to their initial values; shared cells are
// durable. It is the whole body of a Mem-backed object's CrashVolatile
// hook; attached parts are not wiped.
func (m *Mem) Wipe() {
	m.last = nil
	for i, k := range m.kinds {
		switch k {
		case cache:
			m.vals[i] = m.vals[i+1]
		case local:
			m.vals[i] = m.inits[i]
		}
	}
}

// Lazy returns the cell group allocated under key, allocating it with
// alloc on first use, inside the caller's window and so in path order.
// A Restore to a snapshot taken before the group existed forgets it;
// the next lookup allocates it again at the same indices.
func Lazy[T any](m *Mem, key string, alloc func() T) T {
	for i := range m.lazy {
		if m.lazy[i].key == key {
			return m.lazy[i].val.(T)
		}
	}
	v := alloc()
	m.lazy = append(m.lazy, lazyGroup{key: key, val: v})
	m.last = nil
	return v
}

// Attach adds p to m's parts: m's Snapshot, Restore and Fold visit it
// after m's own cells. Attach belongs in the constructor.
func Attach(m *Mem, p Part) {
	m.parts = append(m.parts, p)
	m.last = nil
}

// Local is a process-local cell: state a process keeps between its
// operations (a transaction context, a counter). Get and Set are not
// steps — they declare no footprint and observe nothing — and a crash
// resets the cell to its initial value.
type Local struct{ c cell }

// NewLocal allocates a local cell holding init.
func NewLocal(m *Mem, init Value) *Local { return &Local{m.alloc("", local, init)} }

// Get returns the cell's value.
func (l *Local) Get() Value { return l.c.m.vals[l.c.i] }

// Set stores v, an immutable record: a snapshot copies the value, not
// what it points to.
func (l *Local) Set(v Value) { l.c.set(v) }
