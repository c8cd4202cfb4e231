package hookparity

import (
	"repro/internal/base"
	"repro/internal/history"
	"repro/internal/sim"
)

// memObject keeps all its state in its memory: constructor-only
// fields, derived hooks, cells allocated through &o.Mem mid-run. Clean.
type memObject struct {
	base.Mem
	reg   *base.Register
	count *base.Local
}

func newMemObject() *memObject {
	o := &memObject{}
	o.reg = base.NewRegister(&o.Mem, "r", 0)
	o.count = base.NewLocal(&o.Mem, 0)
	return o
}

func (o *memObject) Fingerprint(f *sim.Fingerprinter) { o.Fold(f) }
func (o *memObject) CrashVolatile()                   { o.Wipe() }

func (o *memObject) Begin(p *sim.Proc, inv sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	base.NewCAS(&o.Mem, "tx", nil)
	o.count.Set(o.count.Get().(int) + 1)
	return &memFrame{o: o}, nil, sim.StepPaused
}

// memFrame is memObject's in-flight operation; its own fields are its
// business.
type memFrame struct {
	o  *memObject
	pc int
}

func (f *memFrame) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	f.pc++
	f.o.reg.WriteW(p, f.pc)
	return nil, sim.StepDone
}

func (f *memFrame) Fork() sim.Frame {
	c := *f
	return &c
}

// memSpelled spells the derived bodies through the embedded field.
// Clean.
type memSpelled struct{ base.Mem }

func (o *memSpelled) Fingerprint(f *sim.Fingerprinter) { o.Mem.Fold(f) }
func (o *memSpelled) CrashVolatile()                   { o.Mem.Wipe() }

// memOwnHooks writes its own snapshot pair over the promoted one.
type memOwnHooks struct {
	base.Mem
	extra int
}

func (o *memOwnHooks) Snapshot() any { return o.Mem.Snapshot() } // want `memOwnHooks embeds base\.Mem and must not declare Snapshot`
func (o *memOwnHooks) Restore(s any) { o.Mem.Restore(s) }        // want `memOwnHooks embeds base\.Mem and must not declare Restore`

// memHandBodies adds to the derived Fingerprint and CrashVolatile
// bodies.
type memHandBodies struct {
	base.Mem
	n int
}

func (o *memHandBodies) Fingerprint(f *sim.Fingerprinter) { // want `memHandBodies embeds base\.Mem: its Fingerprint must be exactly`
	o.Fold(f)
	f.Int(o.n)
}

func (o *memHandBodies) CrashVolatile() { // want `memHandBodies embeds base\.Mem: its CrashVolatile must be exactly`
	for i := 0; i < 2; i++ {
		o.Wipe()
	}
}

// memLeaky keeps state outside its cells.
type memLeaky struct {
	base.Mem
	n    int
	xs   []int
	seen map[string]bool
}

func newMemLeaky() *memLeaky {
	o := &memLeaky{xs: make([]int, 2), seen: map[string]bool{}}
	o.n = 1
	o.xs[0] = 1
	return o
}

func (o *memLeaky) Begin(p *sim.Proc, inv sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	counter := &o.n // want `address of memLeaky field n outside a constructor`
	*counter = 2
	o.xs[1] = 3            // want `assignment to memLeaky field xs outside a constructor`
	o.n++                  // want `increment of memLeaky field n outside a constructor`
	delete(o.seen, inv.Op) // want `delete from memLeaky field seen outside a constructor`
	return &leakyFrame{o: o}, nil, sim.StepPaused
}

// leakyFrame writes its object's field through the object pointer.
type leakyFrame struct{ o *memLeaky }

func (f *leakyFrame) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	f.o.n = 4 // want `assignment to memLeaky field n outside a constructor`
	return nil, sim.StepDone
}

func (f *leakyFrame) Fork() sim.Frame { return f }

var _ = []any{newMemObject(), &memSpelled{}, &memOwnHooks{}, &memHandBodies{}, newMemLeaky()}
