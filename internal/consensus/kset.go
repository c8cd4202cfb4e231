package consensus

import (
	"repro/internal/base"
	"repro/internal/history"
	"repro/internal/sim"
)

// DecideOwn is the trivial wait-free k-set agreement implementation for
// n <= k processes: every process announces and decides its own value (at
// most n <= k distinct decisions). For n >= k+1 it violates k-set
// agreement, matching the Borowsky-Gafni boundary: k-set agreement is
// wait-free solvable from registers iff n <= k.
//
//slx:norecover the announcement slots are modeled durable; a crashed proposer just stops
type DecideOwn struct {
	base.Mem
	ann *base.Snapshot
}

// NewDecideOwn creates the implementation for n processes.
func NewDecideOwn(n int) *DecideOwn {
	d := &DecideOwn{}
	d.ann = base.NewSnapshot(&d.Mem, "ann", n, nil)
	return d
}

// Footprints implements sim.Footprinted: the announcement snapshot is
// the whole shared state.
func (d *DecideOwn) Footprints() bool { return true }

// Fingerprint implements sim.Fingerprintable: slots compare by content.
func (d *DecideOwn) Fingerprint(f *sim.Fingerprinter) { d.Fold(f) }

// Apply implements sim.Object.
func (d *DecideOwn) Apply(p *sim.Proc, inv sim.Invocation) history.Value {
	return sim.ApplyFrames(d, p, inv)
}

// decideOwnFrame is one in-flight propose: announce, then decide the
// own value, in one window. It never mutates, so Fork returns the
// receiver.
type decideOwnFrame struct {
	d *DecideOwn
	v history.Value
}

// Begin implements sim.Stepped.
func (d *DecideOwn) Begin(p *sim.Proc, inv sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	return &decideOwnFrame{d: d, v: inv.Arg}, nil, sim.StepPaused
}

// Step implements sim.Frame.
func (f *decideOwnFrame) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	f.d.ann.UpdateW(p, p.ID()-1, f.v)
	return f.v, sim.StepDone
}

// Fork implements sim.Frame.
func (f *decideOwnFrame) Fork() sim.Frame { return f }

// FirstAnnounced is a k-set agreement implementation that decides the
// value in the lowest announced slot it observes: wait-free, and its
// decisions are exactly the values that sat in the lowest occupied slot
// when each process scanned — up to n distinct values in adversarial
// interleavings, but at most k when at most k values are ever
// announced. It is used by tests as a *plausible but wrong* candidate
// for n > k: the explorer finds the violating interleaving.
//
//slx:norecover the announcement slots are modeled durable; a crashed proposer just stops
type FirstAnnounced struct {
	base.Mem
	ann *base.Snapshot
}

// NewFirstAnnounced creates the implementation for n processes.
func NewFirstAnnounced(n int) *FirstAnnounced {
	d := &FirstAnnounced{}
	d.ann = base.NewSnapshot(&d.Mem, "ann", n, nil)
	return d
}

// Footprints implements sim.Footprinted: the announcement snapshot is
// the whole shared state.
func (d *FirstAnnounced) Footprints() bool { return true }

// Fingerprint implements sim.Fingerprintable: slots compare by content,
// and the scan observes every value it decides on.
func (d *FirstAnnounced) Fingerprint(f *sim.Fingerprinter) { d.Fold(f) }

// Apply implements sim.Object.
func (d *FirstAnnounced) Apply(p *sim.Proc, inv sim.Invocation) history.Value {
	return sim.ApplyFrames(d, p, inv)
}

// firstAnnouncedFrame is one in-flight propose: announce, then scan and
// decide the lowest announced value.
type firstAnnouncedFrame struct {
	d         *FirstAnnounced
	v         history.Value
	announced bool
}

// Begin implements sim.Stepped.
func (d *FirstAnnounced) Begin(p *sim.Proc, inv sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	return &firstAnnouncedFrame{d: d, v: inv.Arg}, nil, sim.StepPaused
}

// Step implements sim.Frame.
func (f *firstAnnouncedFrame) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	if !f.announced {
		f.d.ann.UpdateW(p, p.ID()-1, f.v)
		f.announced = true
		return nil, sim.StepPaused
	}
	for _, v := range f.d.ann.ScanW(p, nil) {
		if v != nil {
			return v, sim.StepDone
		}
	}
	return f.v, sim.StepDone
}

// Fork implements sim.Frame.
func (f *firstAnnouncedFrame) Fork() sim.Frame {
	c := *f
	return &c
}
