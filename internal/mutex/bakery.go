package mutex

import (
	"repro/internal/base"
	"repro/internal/history"
	"repro/internal/sim"
)

// Bakery is Lamport's bakery lock for n processes from registers only:
// first-come-first-served and hence starvation-free. Tickets grow without
// bound, which is fine in simulation (the paper's registers hold arbitrary
// values).
//
//slx:nofootprint acquire scans every process's slots, so steps conflict pairwise anyway
//slx:norecover tickets and flags are modeled durable; a crashed holder simply never releases
type Bakery struct {
	base.Mem
	n        int
	choosing []*base.Register
	number   []*base.Register
}

// NewBakery creates the lock for n processes.
func NewBakery(n int) *Bakery {
	b := &Bakery{
		n:        n,
		choosing: make([]*base.Register, n),
		number:   make([]*base.Register, n),
	}
	for i := 0; i < n; i++ {
		b.choosing[i] = base.NewRegister(&b.Mem, "choosing", false)
		b.number[i] = base.NewRegister(&b.Mem, "number", 0)
	}
	return b
}

// Fingerprint implements sim.Fingerprintable: tickets and choosing
// flags, in process order. (The registers share the names "choosing"
// and "number" across processes, which is fine here: the fixed
// allocation order keys each component by position.)
func (b *Bakery) Fingerprint(f *sim.Fingerprinter) { b.Fold(f) }

// Apply implements sim.Object.
func (b *Bakery) Apply(p *sim.Proc, inv sim.Invocation) history.Value {
	return sim.ApplyFrames(b, p, inv)
}

// Frame phases for bakeryFrame.pc. Each constant names the access the
// next Step performs.
const (
	bkChoose       = iota // choosing[me] = true
	bkScan                // read number[j], j advancing 0..n-1, for the maximum
	bkNumber              // number[me] = maximum+1
	bkUnchoose            // choosing[me] = false
	bkWaitChoosing        // read choosing[j] until false
	bkWaitNumber          // read number[j] until j no longer precedes me
	bkRelease             // number[me] = 0
)

// bakeryFrame is one in-flight Bakery operation. Acquire takes a
// ticket one above every ticket it reads, then waits, for each other
// process j in turn, until j is not choosing and holds no ticket that
// precedes its own (lower ticket, ties broken by process index).
type bakeryFrame struct {
	b     *Bakery
	me    int // p.ID() - 1
	pc    int
	j     int // process scanned or waited on
	myNum int // running maximum during bkScan, then the own ticket
}

// Begin implements sim.Stepped: both operations start with a base
// access, so the invocation window runs no object code.
func (b *Bakery) Begin(p *sim.Proc, inv sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	switch inv.Op {
	case OpAcquire:
		return &bakeryFrame{b: b, me: p.ID() - 1, pc: bkChoose}, nil, sim.StepPaused
	case OpRelease:
		return &bakeryFrame{b: b, me: p.ID() - 1, pc: bkRelease}, nil, sim.StepPaused
	default:
		return nil, nil, sim.StepDone
	}
}

// Step implements sim.Frame.
func (f *bakeryFrame) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	b := f.b
	switch f.pc {
	case bkChoose:
		b.choosing[f.me].WriteW(p, true)
		f.pc = bkScan
	case bkScan:
		if n := b.number[f.j].ReadW(p).(int); n > f.myNum {
			f.myNum = n
		}
		if f.j++; f.j == b.n {
			f.myNum++
			f.pc = bkNumber
		}
	case bkNumber:
		b.number[f.me].WriteW(p, f.myNum)
		f.pc = bkUnchoose
	case bkUnchoose:
		b.choosing[f.me].WriteW(p, false)
		return f.wait(0)
	case bkWaitChoosing:
		if !b.choosing[f.j].ReadW(p).(bool) {
			f.pc = bkWaitNumber
		}
	case bkWaitNumber:
		nj := b.number[f.j].ReadW(p).(int)
		if nj == 0 || nj > f.myNum || (nj == f.myNum && f.j > f.me) {
			return f.wait(f.j + 1)
		}
	case bkRelease:
		b.number[f.me].WriteW(p, 0)
		return Unlocked, sim.StepDone
	}
	return nil, sim.StepPaused
}

// wait moves on to the first process from j on other than me; past the
// last one the lock is held.
func (f *bakeryFrame) wait(j int) (history.Value, sim.StepStatus) {
	if j == f.me {
		j++
	}
	if j == f.b.n {
		return Locked, sim.StepDone
	}
	f.j = j
	f.pc = bkWaitChoosing
	return nil, sim.StepPaused
}

// Fork implements sim.Frame.
func (f *bakeryFrame) Fork() sim.Frame {
	c := *f
	return &c
}
