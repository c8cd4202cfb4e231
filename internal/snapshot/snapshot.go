// Package snapshot implements a wait-free atomic snapshot object from
// single-writer multi-reader registers, following Afek, Attiya, Dolev,
// Gafni, Merritt and Shavit (JACM 1993).
//
// The paper's Algorithm 1 uses a snapshot object R[1..n] with an atomic
// scan. internal/base provides it as a hardware primitive (one-step scan);
// this package provides the classic software construction so that the TM
// can be built from registers and a single compare-and-swap only — every
// register access is one simulator step, and scans are genuinely
// concurrent with updates.
//
// Update_i embeds a full scan ("view") into the written cell; a scan
// double collects until either two collects agree (a clean snapshot) or
// some updater is seen to move twice, in which case its embedded view —
// taken entirely within our scan's window — is borrowed. Both
// operations are wait-free: a scan performs O(n) double collects.
//
// The operations are written as frame machines (sim.Frame), one
// register access per Step: ScanFrame and UpdateFrame return the frames
// that I12's own frames step through (the tm.SnapshotObject interface).
package snapshot

import (
	"fmt"

	"repro/internal/base"
	"repro/internal/history"
	"repro/internal/sim"
)

// Value is the component datum.
type Value = base.Value

// cell is the immutable record stored in each component register.
type cell struct {
	val Value
	seq int
	// view is the scan embedded by the update that wrote this cell; nil
	// for the initial cell.
	view []Value
}

// SW is the software snapshot object. Component i must only be updated by
// process i+1 (single-writer), which is how the paper's Algorithm 1 uses
// R[1..n]. Its component registers live in its own memory, whose
// promoted Snapshot and Restore are the hook an owner attaches.
type SW struct {
	base.Mem
	regs []*base.Register

	// borrows counts scans that returned an embedded view rather than a
	// clean double collect (observability for tests and benchmarks). It is
	// a local cell, so restores rewind it with the registers.
	borrows *base.Local
}

// Borrows returns how many scans returned a borrowed embedded view.
func (s *SW) Borrows() int { return s.borrows.Get().(int) }

// New creates a software snapshot with n components initialized to
// initial.
func New(name string, n int, initial Value) *SW {
	s := &SW{regs: make([]*base.Register, n)}
	for i := range s.regs {
		s.regs[i] = base.NewRegister(&s.Mem,
			fmt.Sprintf("%s[%d]", name, i),
			&cell{val: initial},
		)
	}
	s.borrows = base.NewLocal(&s.Mem, 0)
	return s
}

// Len returns the number of components.
func (s *SW) Len() int { return len(s.regs) }

func values(cells []*cell) []Value {
	out := make([]Value, len(cells))
	for i, c := range cells {
		out[i] = c.val
	}
	return out
}

// ScanFrame returns an in-flight scan: an atomic snapshot of all
// components, whose StepDone value is the []history.Value view.
func (s *SW) ScanFrame() sim.Frame {
	return &scanFrame{scan: s.newScan()}
}

// UpdateFrame returns an in-flight update setting component i (0-based)
// to v. Per the single-writer discipline, only one process may ever
// update a given component. The update embeds a fresh scan, making it
// linearizable with concurrent scans: it scans, reads its own register,
// then writes it.
func (s *SW) UpdateFrame(i int, v history.Value) sim.Frame {
	return &updateFrame{scan: s.newScan(), i: i, v: v}
}

// scan is the state of one in-flight scan. It is wait-free: each double
// collect either agrees (the snapshot is the second collect, which was
// valid at every point between the two) or some component moved; a
// component that moves twice embeds a view scanned entirely inside our
// window, which is returned instead.
type scan struct {
	s         *SW
	prev, cur []*cell // the last complete collect and the one in progress
	moved     []int   // per component, the moves seen so far
	j         int     // the register the next read collects
	collected bool    // prev holds a complete collect
}

func (s *SW) newScan() scan {
	n := len(s.regs)
	return scan{s: s, prev: make([]*cell, n), cur: make([]*cell, n), moved: make([]int, n)}
}

// step reads the next register, one step, and reports the view once the
// scan is complete.
func (c *scan) step(p *sim.Proc) ([]Value, bool) {
	c.cur[c.j] = c.s.regs[c.j].ReadW(p).(*cell)
	if c.j++; c.j < len(c.cur) {
		return nil, false
	}
	c.j = 0
	if !c.collected {
		c.collected = true
		c.prev, c.cur = c.cur, c.prev
		return nil, false
	}
	agree := true
	for i := range c.cur {
		if c.cur[i].seq != c.prev[i].seq {
			agree = false
			c.moved[i]++
			if c.moved[i] >= 2 {
				// cur[i]'s update began after our scan did (it is the
				// second move we observed), so its embedded view was
				// taken within our window.
				c.s.borrows.Set(c.s.Borrows() + 1)
				view := make([]Value, len(c.cur))
				copy(view, c.cur[i].view)
				return view, true
			}
		}
	}
	if agree {
		return values(c.cur), true
	}
	c.prev, c.cur = c.cur, c.prev
	return nil, false
}

// fork copies the collect arrays, which step mutates in place.
func (c scan) fork() scan {
	c.prev = append([]*cell(nil), c.prev...)
	c.cur = append([]*cell(nil), c.cur...)
	c.moved = append([]int(nil), c.moved...)
	return c
}

// scanFrame is an in-flight scan.
type scanFrame struct{ scan scan }

// Step implements sim.Frame.
func (f *scanFrame) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	if view, done := f.scan.step(p); done {
		return view, sim.StepDone
	}
	return nil, sim.StepPaused
}

// Fork implements sim.Frame.
func (f *scanFrame) Fork() sim.Frame { return &scanFrame{scan: f.scan.fork()} }

// updateFrame is an in-flight update: the embedded scan, then the read
// and the write of the own register.
type updateFrame struct {
	scan scan
	i    int
	v    Value
	view []Value // the embedded scan's result, once complete
	old  *cell   // the own register's cell, once read
	pc   int     // 0 scanning, 1 read own, 2 write own
}

// Step implements sim.Frame.
func (f *updateFrame) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	reg := f.scan.s.regs[f.i]
	switch f.pc {
	case 0:
		if view, done := f.scan.step(p); done {
			f.view = view
			f.pc = 1
		}
	case 1:
		f.old = reg.ReadW(p).(*cell)
		f.pc = 2
	case 2:
		reg.WriteW(p, &cell{val: f.v, seq: f.old.seq + 1, view: f.view})
		return nil, sim.StepDone
	}
	return nil, sim.StepPaused
}

// Fork implements sim.Frame.
func (f *updateFrame) Fork() sim.Frame {
	c := *f
	c.scan = f.scan.fork()
	return &c
}
