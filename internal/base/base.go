// Package base implements the atomic base objects of the paper's system
// model (Section 2): read/write registers, compare-and-swap, test-and-set,
// fetch-and-add, and an atomic snapshot array. Base objects are the
// primitives "usually provided by the hardware" from which higher-level
// shared objects (consensus, transactional memory) are implemented.
//
// Every operation on a base object is exactly one atomic step of the
// executing process. The operations (ReadW, WriteW, ...) take an
// Accessor and perform the effect immediately: their caller — a frame
// machine's Step (see sim.Stepped), or the op of a Proc.Exec in a
// hand-written blocking Apply — already runs inside the granted step's
// window. The simulation runtime serializes all grants, so base-object
// state needs no locking.
//
// Every base object is allocated in a Mem, the one store of an object's
// state, from which the object's snapshot, fingerprint and crash hooks
// derive.
package base

import "repro/internal/history"

// Value is the datum stored in base objects.
type Value = history.Value

// Accessor is the per-step access context of a granted window: it
// declares the step's footprint and folds observed values into the
// executing process's local-state fingerprint. sim.Proc implements it;
// the window methods (ReadW, WriteW, ...) take it directly because
// their callers already execute inside a granted step.
type Accessor interface {
	// Access declares that the step read (write=false) or mutated
	// (write=true) the named base object.
	Access(obj string, write bool)
	// Observe folds a value the step read from shared state into the
	// process's local-state fingerprint.
	Observe(v Value)
}

// cell is a base object's handle on its cell in a memory.
type cell struct {
	m *Mem
	i int
}

// Name returns the object's name.
func (c cell) Name() string { return c.m.names[c.i] }

// read is one atomic read step: declare, load, observe.
func (c cell) read(a Accessor) Value {
	a.Access(c.m.names[c.i], false)
	v := c.m.vals[c.i]
	a.Observe(v)
	return v
}

// write is one atomic write step.
func (c cell) write(a Accessor, v Value) {
	a.Access(c.m.names[c.i], true)
	c.set(v)
}

// set stores v in the cell.
func (c cell) set(v Value) {
	c.m.vals[c.i] = v
	c.m.last = nil
}

// Register is an atomic read/write register.
type Register struct{ cell }

// NewRegister allocates a register with the given initial value in m.
func NewRegister(m *Mem, name string, initial Value) *Register {
	return &Register{m.alloc(name, shared, initial)}
}

// ReadW atomically reads the register within the caller's granted step.
func (r *Register) ReadW(a Accessor) Value { return r.read(a) }

// WriteW atomically writes v within the caller's granted step.
func (r *Register) WriteW(a Accessor, v Value) { r.write(a, v) }

// DurableRegister is the crash-aware register pair of the recovery
// runtime: an atomic register whose content lives in a volatile cache
// until an explicit flush persists it. ReadW and WriteW act on the
// cache; FlushW copies the cache into the durable cell, each in one
// atomic step. A crash — Mem.Wipe, called from the owning object's
// sim.Recoverable.CrashVolatile hook — discards the cache, exposing the
// last flushed value, which is exactly what a recovery routine then
// observes. A write that is never flushed vanishes at the next crash.
type DurableRegister struct{ cell } // the cache; the flushed half is the next cell

// NewDurableRegister allocates a durable register in m whose durable
// cell and cache both hold initial.
func NewDurableRegister(m *Mem, name string, initial Value) *DurableRegister {
	r := &DurableRegister{m.alloc(name, cache, initial)}
	m.alloc(name, flushed, initial)
	return r
}

// ReadW atomically reads the cached value within the caller's granted
// step.
func (r *DurableRegister) ReadW(a Accessor) Value { return r.read(a) }

// WriteW atomically writes v to the cache within the caller's granted
// step. The write is volatile until a flush.
func (r *DurableRegister) WriteW(a Accessor, v Value) { r.write(a, v) }

// FlushW atomically persists the cached value within the caller's
// granted step.
func (r *DurableRegister) FlushW(a Accessor) {
	a.Access(r.m.names[r.i], true)
	cell{r.m, r.i + 1}.set(r.m.vals[r.i])
}

// PeekDurable returns the durable cell without recording an access. Like
// CAS.Peek it exists for scheduler callbacks and tests, which run
// strictly between process windows; algorithm code must use ReadW after a
// crash (the wiped cache equals the durable cell).
func (r *DurableRegister) PeekDurable() Value { return r.m.vals[r.i+1] }

// Peek returns the volatile cache without recording an access; see
// PeekDurable.
func (r *DurableRegister) Peek() Value { return r.m.vals[r.i] }

// CAS is an atomic compare-and-swap object. Comparison uses ==, so
// composite states should be stored as pointers to immutable records (the
// usual technique for CAS-based algorithms). Such an object must not
// opt into content fingerprints: see sim.Fingerprintable.
type CAS struct{ cell }

// NewCAS allocates a compare-and-swap object with the given initial
// value in m.
func NewCAS(m *Mem, name string, initial Value) *CAS {
	return &CAS{m.alloc(name, shared, initial)}
}

// ReadW atomically reads the current value within the caller's granted
// step.
func (c *CAS) ReadW(a Accessor) Value { return c.read(a) }

// CompareAndSwapW atomically replaces the current value with new if it
// equals old, within the caller's granted step.
func (c *CAS) CompareAndSwapW(a Accessor, old, new Value) bool {
	// A failed compare-and-swap mutates nothing: declaring it a read
	// is sound (while a sleep entry holding this footprint is alive,
	// any write to the object is dependent and evicts it, so the
	// compare outcome cannot change) and lets exploration commute
	// failed CAS steps of different processes.
	ok := c.m.vals[c.i] == old
	a.Access(c.m.names[c.i], ok)
	if ok {
		c.set(new)
	}
	a.Observe(ok)
	return ok
}

// Peek reads the current value without consuming a step. It is intended
// for inspection from scheduler callbacks and tests, which the simulator
// runs strictly between process windows; algorithm code must use ReadW.
func (c *CAS) Peek() Value { return c.m.vals[c.i] }

// SwapW atomically replaces the current value unconditionally within
// the caller's granted step and returns the previous value.
func (c *CAS) SwapW(a Accessor, new Value) Value {
	a.Access(c.m.names[c.i], true)
	prev := c.m.vals[c.i]
	c.set(new)
	a.Observe(prev)
	return prev
}

// TAS is an atomic test-and-set bit.
type TAS struct{ cell }

// NewTAS allocates a test-and-set object in m, initially unset.
func NewTAS(m *Mem, name string) *TAS { return &TAS{m.alloc(name, shared, false)} }

// TestAndSetW atomically sets the bit within the caller's granted step
// and reports whether this call was the one that set it (true = won).
func (t *TAS) TestAndSetW(a Accessor) bool {
	// A losing test-and-set leaves the bit set: a read footprint, by
	// the same argument as CompareAndSwapW.
	won := !t.m.vals[t.i].(bool)
	a.Access(t.m.names[t.i], won)
	t.set(true)
	a.Observe(won)
	return won
}

// ReadW atomically reads the bit within the caller's granted step.
func (t *TAS) ReadW(a Accessor) bool { return t.read(a).(bool) }

// ResetW atomically clears the bit within the caller's granted step.
func (t *TAS) ResetW(a Accessor) { t.write(a, false) }

// FetchAdd is an atomic fetch-and-add counter.
type FetchAdd struct{ cell }

// NewFetchAdd allocates a counter with the given initial value in m.
func NewFetchAdd(m *Mem, name string, initial int) *FetchAdd {
	return &FetchAdd{m.alloc(name, shared, initial)}
}

// AddW atomically adds delta within the caller's granted step and
// returns the previous value.
func (f *FetchAdd) AddW(a Accessor, delta int) int {
	a.Access(f.m.names[f.i], true)
	prev := f.m.vals[f.i].(int)
	f.set(prev + delta)
	a.Observe(prev)
	return prev
}

// ReadW atomically reads the counter within the caller's granted step.
func (f *FetchAdd) ReadW(a Accessor) int { return f.read(a).(int) }

// Snapshot is an atomic snapshot object of n single-writer registers with
// an atomic scan, as used by the paper's Algorithm 1 (R[1..n] with
// R.scan()). UpdateW writes one component; ScanW returns a consistent copy
// of all components in a single atomic step. Its components are n
// consecutive cells sharing the object's name.
type Snapshot struct {
	m     *Mem
	name  string
	first int
	n     int
}

// NewSnapshot allocates a snapshot object with n components in m, all
// initialized to initial.
func NewSnapshot(m *Mem, name string, n int, initial Value) *Snapshot {
	first := len(m.vals)
	for i := 0; i < n; i++ {
		m.alloc(name, shared, initial)
	}
	return &Snapshot{m: m, name: name, first: first, n: n}
}

// Name returns the object's name.
func (sn *Snapshot) Name() string { return sn.name }

// Len returns the number of components.
func (sn *Snapshot) Len() int { return sn.n }

// UpdateW atomically writes v to component i (0-based) within the
// caller's granted step.
func (sn *Snapshot) UpdateW(a Accessor, i int, v Value) {
	if i < 0 || i >= sn.n {
		panic("base: snapshot component out of range")
	}
	a.Access(sn.name, true)
	cell{sn.m, sn.first + i}.set(v)
}

// ScanW atomically appends a copy of all components to dst within the
// caller's granted step and returns the extended slice (pass dst[:0] to
// reuse a buffer, nil to allocate).
func (sn *Snapshot) ScanW(a Accessor, dst []Value) []Value {
	a.Access(sn.name, false)
	slots := sn.m.vals[sn.first : sn.first+sn.n]
	dst = append(dst, slots...)
	for _, v := range slots {
		a.Observe(v)
	}
	return dst
}
