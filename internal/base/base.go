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

// StateSink receives the canonical state encoding of a base object.
// sim.Fingerprinter implements it; implementations composing base
// objects forward the sink to each base object's Fingerprint method in
// a fixed order to build their sim.Fingerprintable hook.
type StateSink interface {
	// Str folds a string component (names, tags).
	Str(s string)
	// Val folds a stored value by dynamic type and content.
	Val(v Value)
	// Int folds an integer component.
	Int(v int)
	// Bool folds a boolean component.
	Bool(b bool)
}

// Register is an atomic read/write register.
type Register struct {
	name string
	val  Value
}

// NewRegister creates a register with the given initial value.
func NewRegister(name string, initial Value) *Register {
	return &Register{name: name, val: initial}
}

// Name returns the register's name.
func (r *Register) Name() string { return r.name }

// ReadW atomically reads the register within the caller's granted step.
func (r *Register) ReadW(a Accessor) Value {
	a.Access(r.name, false)
	v := r.val
	a.Observe(v)
	return v
}

// Fingerprint writes the register's canonical state (name and value).
func (r *Register) Fingerprint(f StateSink) {
	f.Str(r.name)
	f.Val(r.val)
}

// Snapshot captures the register's state. Stored values follow the
// immutable-record idiom (they are replaced, never mutated in place),
// so the shallow value is the state.
func (r *Register) Snapshot() any { return r.val }

// Restore reinstates a state captured by Snapshot.
func (r *Register) Restore(s any) { r.val = s }

// WriteW atomically writes v within the caller's granted step.
func (r *Register) WriteW(a Accessor, v Value) {
	a.Access(r.name, true)
	r.val = v
}

// DurableRegister is the crash-aware register pair of the recovery
// runtime: an atomic register whose content lives in a volatile cache
// until an explicit flush persists it. ReadW and WriteW act on the
// cache; FlushW copies the cache into the durable cell, each in one atomic
// step. CrashWipe — called from the owning object's
// sim.Recoverable.CrashVolatile hook — discards the cache, exposing the
// last flushed value, which is exactly what a recovery routine then
// observes. A write that is never flushed vanishes at the next crash.
type DurableRegister struct {
	name    string
	durable Value
	vol     Value
}

// NewDurableRegister creates a durable register whose durable cell and
// cache both hold initial.
func NewDurableRegister(name string, initial Value) *DurableRegister {
	return &DurableRegister{name: name, durable: initial, vol: initial}
}

// Name returns the register's name.
func (r *DurableRegister) Name() string { return r.name }

// ReadW atomically reads the cached value within the caller's granted
// step.
func (r *DurableRegister) ReadW(a Accessor) Value {
	a.Access(r.name, false)
	v := r.vol
	a.Observe(v)
	return v
}

// WriteW atomically writes v to the cache within the caller's granted
// step. The write is volatile until a flush.
func (r *DurableRegister) WriteW(a Accessor, v Value) {
	a.Access(r.name, true)
	r.vol = v
}

// FlushW atomically persists the cached value within the caller's
// granted step.
func (r *DurableRegister) FlushW(a Accessor) {
	a.Access(r.name, true)
	r.durable = r.vol
}

// CrashWipe discards the volatile cache, exposing the last flushed
// value. It is not a step: the simulation runtime invokes the owning
// object's CrashVolatile hook between windows, at every crash decision.
func (r *DurableRegister) CrashWipe() { r.vol = r.durable }

// PeekDurable returns the durable cell without recording an access. Like
// CAS.Peek it exists for scheduler callbacks and tests, which run
// strictly between process windows; algorithm code must use ReadW after a
// crash (the wiped cache equals the durable cell).
func (r *DurableRegister) PeekDurable() Value { return r.durable }

// Peek returns the volatile cache without recording an access; see
// PeekDurable.
func (r *DurableRegister) Peek() Value { return r.vol }

// Fingerprint writes the register's canonical state: name, durable cell
// and cache.
func (r *DurableRegister) Fingerprint(f StateSink) {
	f.Str(r.name)
	f.Val(r.durable)
	f.Val(r.vol)
}

// durableRegState is a captured (durable, volatile) pair.
type durableRegState struct{ durable, vol Value }

// Snapshot captures both cells (stored values follow the
// immutable-record idiom: replaced, never mutated in place).
func (r *DurableRegister) Snapshot() any {
	return durableRegState{durable: r.durable, vol: r.vol}
}

// Restore reinstates a state captured by Snapshot.
func (r *DurableRegister) Restore(s any) {
	st := s.(durableRegState)
	r.durable, r.vol = st.durable, st.vol
}

// CAS is an atomic compare-and-swap object. Comparison uses ==, so
// composite states should be stored as pointers to immutable records (the
// usual technique for CAS-based algorithms).
type CAS struct {
	name string
	val  Value
}

// NewCAS creates a compare-and-swap object with the given initial value.
func NewCAS(name string, initial Value) *CAS {
	return &CAS{name: name, val: initial}
}

// Name returns the object's name.
func (c *CAS) Name() string { return c.name }

// ReadW atomically reads the current value within the caller's granted
// step.
func (c *CAS) ReadW(a Accessor) Value {
	a.Access(c.name, false)
	v := c.val
	a.Observe(v)
	return v
}

// Fingerprint writes the object's canonical state (name and value). The
// encoding is by content, so implementations whose correctness rides on
// the identity of stored allocations (fresh-record CAS idioms) must not
// expose it through a sim.Fingerprintable hook — see that interface.
func (c *CAS) Fingerprint(f StateSink) {
	f.Str(c.name)
	f.Val(c.val)
}

// Snapshot captures the object's state: the exact stored value,
// pointer identity included, which is what the CAS idiom (fresh
// immutable records compared by pointer) requires of a restore.
func (c *CAS) Snapshot() any { return c.val }

// Restore reinstates a state captured by Snapshot.
func (c *CAS) Restore(s any) { c.val = s }

// CompareAndSwapW atomically replaces the current value with new if it
// equals old, within the caller's granted step.
func (c *CAS) CompareAndSwapW(a Accessor, old, new Value) bool {
	// A failed compare-and-swap mutates nothing: declaring it a read
	// is sound (while a sleep entry holding this footprint is alive,
	// any write to the object is dependent and evicts it, so the
	// compare outcome cannot change) and lets exploration commute
	// failed CAS steps of different processes.
	a.Access(c.name, c.val == old)
	ok := false
	if c.val == old {
		c.val = new
		ok = true
	}
	a.Observe(ok)
	return ok
}

// Peek reads the current value without consuming a step. It is intended
// for inspection from scheduler callbacks and tests, which the simulator
// runs strictly between process windows; algorithm code must use ReadW.
func (c *CAS) Peek() Value { return c.val }

// SwapW atomically replaces the current value unconditionally within
// the caller's granted step and returns the previous value.
func (c *CAS) SwapW(a Accessor, new Value) Value {
	a.Access(c.name, true)
	prev := c.val
	c.val = new
	a.Observe(prev)
	return prev
}

// TAS is an atomic test-and-set bit.
type TAS struct {
	name string
	set  bool
}

// NewTAS creates a test-and-set object, initially unset.
func NewTAS(name string) *TAS {
	return &TAS{name: name}
}

// Name returns the object's name.
func (t *TAS) Name() string { return t.name }

// TestAndSetW atomically sets the bit within the caller's granted step
// and reports whether this call was the one that set it (true = won).
func (t *TAS) TestAndSetW(a Accessor) bool {
	// A losing test-and-set leaves the bit set: a read footprint, by
	// the same argument as CompareAndSwapW.
	a.Access(t.name, !t.set)
	won := !t.set
	t.set = true
	a.Observe(won)
	return won
}

// ReadW atomically reads the bit within the caller's granted step.
func (t *TAS) ReadW(a Accessor) bool {
	a.Access(t.name, false)
	v := t.set
	a.Observe(v)
	return v
}

// Fingerprint writes the bit's canonical state (name and value).
func (t *TAS) Fingerprint(f StateSink) {
	f.Str(t.name)
	f.Bool(t.set)
}

// Snapshot captures the bit.
func (t *TAS) Snapshot() any { return t.set }

// Restore reinstates a state captured by Snapshot.
func (t *TAS) Restore(s any) { t.set = s.(bool) }

// ResetW atomically clears the bit within the caller's granted step.
func (t *TAS) ResetW(a Accessor) {
	a.Access(t.name, true)
	t.set = false
}

// FetchAdd is an atomic fetch-and-add counter.
type FetchAdd struct {
	name string
	val  int
}

// NewFetchAdd creates a counter with the given initial value.
func NewFetchAdd(name string, initial int) *FetchAdd {
	return &FetchAdd{name: name, val: initial}
}

// Name returns the object's name.
func (f *FetchAdd) Name() string { return f.name }

// AddW atomically adds delta within the caller's granted step and
// returns the previous value.
func (f *FetchAdd) AddW(a Accessor, delta int) int {
	a.Access(f.name, true)
	prev := f.val
	f.val += delta
	a.Observe(prev)
	return prev
}

// ReadW atomically reads the counter within the caller's granted step.
func (f *FetchAdd) ReadW(a Accessor) int {
	a.Access(f.name, false)
	v := f.val
	a.Observe(v)
	return v
}

// Fingerprint writes the counter's canonical state (name and value).
func (f *FetchAdd) Fingerprint(sink StateSink) {
	sink.Str(f.name)
	sink.Int(f.val)
}

// Snapshot captures the counter.
func (f *FetchAdd) Snapshot() any { return f.val }

// Restore reinstates a state captured by Snapshot.
func (f *FetchAdd) Restore(s any) { f.val = s.(int) }

// Snapshot is an atomic snapshot object of n single-writer registers with
// an atomic scan, as used by the paper's Algorithm 1 (R[1..n] with
// R.scan()). UpdateW writes one component; ScanW returns a consistent copy
// of all components in a single atomic step.
type Snapshot struct {
	name  string
	slots []Value
}

// NewSnapshot creates a snapshot object with n components, all initialized
// to initial.
func NewSnapshot(name string, n int, initial Value) *Snapshot {
	slots := make([]Value, n)
	for i := range slots {
		slots[i] = initial
	}
	return &Snapshot{name: name, slots: slots}
}

// Name returns the object's name.
func (sn *Snapshot) Name() string { return sn.name }

// Len returns the number of components.
func (sn *Snapshot) Len() int { return len(sn.slots) }

// UpdateW atomically writes v to component i (0-based) within the
// caller's granted step.
func (sn *Snapshot) UpdateW(a Accessor, i int, v Value) {
	a.Access(sn.name, true)
	sn.slots[i] = v
}

// ScanW atomically appends a copy of all components to dst within the
// caller's granted step and returns the extended slice (pass dst[:0] to
// reuse a buffer, nil to allocate).
func (sn *Snapshot) ScanW(a Accessor, dst []Value) []Value {
	a.Access(sn.name, false)
	dst = append(dst, sn.slots...)
	for _, v := range sn.slots {
		a.Observe(v)
	}
	return dst
}

// Fingerprint writes the snapshot object's canonical state (name and
// every component in index order).
func (sn *Snapshot) Fingerprint(f StateSink) {
	f.Str(sn.name)
	f.Int(len(sn.slots))
	for _, v := range sn.slots {
		f.Val(v)
	}
}

// Snapshot captures all components (copied: Update mutates the slot
// array in place).
func (sn *Snapshot) Snapshot() any {
	out := make([]Value, len(sn.slots))
	copy(out, sn.slots)
	return out
}

// Restore reinstates a state captured by Snapshot.
func (sn *Snapshot) Restore(s any) {
	copy(sn.slots, s.([]Value))
}
