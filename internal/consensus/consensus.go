// Package consensus implements the consensus shared object type of the
// paper's corollaries, with three implementations:
//
//   - CommitAdoptOF: an obstruction-free consensus from read/write
//     registers only, built from rounds of commit-adopt (in the style of
//     Herlihy-Luchangco-Moir [20] and Guerraoui-Ruppert [17]). It is the
//     (1,1)-freedom white point of Figure 1(a): a process running without
//     step contention decides, and once any process decides, every propose
//     returns the decision in two steps.
//   - CASBased: a wait-free consensus from a single compare-and-swap
//     object, the ablation showing that L_max is achievable once base
//     objects stronger than registers are allowed (the register-only
//     restriction is what makes the exclusion bite).
//   - Trivial and RespondOnce: the degenerate implementations I_t and I_b
//     from the proof of Theorem 4.9, which ensure any safety property by
//     (almost) never responding.
//
// Processes propose by invoking "propose" with a value; re-invocations
// after a decision return the decided value (the object is a one-shot
// decision with a repeatable accessor, which is what the liveness
// experiments need: progress = infinitely many responses).
package consensus

import (
	"fmt"
	"strconv"

	"repro/internal/base"
	"repro/internal/history"
	"repro/internal/sim"
)

// Propose is the consensus invocation name.
const Propose = "propose"

// bEntry is a commit-adopt phase-2 register value.
type bEntry struct {
	v      history.Value
	commit bool
}

// caRound is one commit-adopt object built from 2n registers.
type caRound struct {
	a []*base.Register
	b []*base.Register
}

// newCARound allocates round number rnd in m. Register names carry the
// round and component indices so distinct registers never share a name:
// footprint tracking (sim.Footprinted) identifies base objects by name,
// and a shared name would make independent accesses look conflicting.
func newCARound(m *base.Mem, rnd, n int) *caRound {
	r := &caRound{
		a: make([]*base.Register, n),
		b: make([]*base.Register, n),
	}
	for i := 0; i < n; i++ {
		r.a[i] = base.NewRegister(m, fmt.Sprintf("A%d[%d]", rnd, i), nil)
		r.b[i] = base.NewRegister(m, fmt.Sprintf("B%d[%d]", rnd, i), nil)
	}
	return r
}

// CommitAdoptOF is obstruction-free consensus from registers: rounds of
// commit-adopt plus a decision register.
//
//slx:norecover all state lives in shared registers modeled durable; a crashed proposer just stops
type CommitAdoptOF struct {
	base.Mem
	n        int
	decision *base.Register
}

// NewCommitAdoptOF creates the implementation for n processes.
func NewCommitAdoptOF(n int) *CommitAdoptOF {
	c := &CommitAdoptOF{n: n}
	c.decision = base.NewRegister(&c.Mem, "D", nil)
	return c
}

// round returns the r-th commit-adopt object (0-based), allocating it
// on first use; rounds are entered, and so allocated, in order.
// Allocation is footprint-neutral: whichever process allocates a round
// allocates the identical fresh registers.
func (c *CommitAdoptOF) round(r int) *caRound {
	return base.Lazy(&c.Mem, strconv.Itoa(r), func() *caRound { return newCARound(&c.Mem, r, c.n) })
}

// Footprints implements sim.Footprinted: all shared state is in named
// base registers, so the per-step access log is trustworthy and
// exploration may use it for partial-order reduction.
func (c *CommitAdoptOF) Footprints() bool { return true }

// Fingerprint implements sim.Fingerprintable: all shared state is in
// the decision register and the round registers (whose names carry the
// round index, so layouts cannot collide), and every value the rounds
// compare is compared by content, never by pointer identity. Lazily
// allocated rounds are included as written: an all-nil allocated round
// fingerprints differently from an unallocated one, which only splits
// states and never merges distinct ones.
func (c *CommitAdoptOF) Fingerprint(f *sim.Fingerprinter) { c.Fold(f) }

// Apply implements sim.Object.
func (c *CommitAdoptOF) Apply(p *sim.Proc, inv sim.Invocation) history.Value {
	return sim.ApplyFrames(c, p, inv)
}

// Frame phases for commitAdoptFrame.pc. Each constant names the access
// the NEXT Step call performs.
const (
	caReadDecision  = iota // decision.Read (first access of the op)
	caWriteA               // a[i].Write of the current round
	caReadA                // a[j].Read, j advancing 0..n-1
	caWriteB               // b[i].Write
	caReadB                // b[j].Read, j advancing 0..n-1
	caWriteDecision        // decision.Write (commit)
	caCheckDecision        // decision.Read at the end of an uncommitted round
)

// commitAdoptFrame is one in-flight propose: read the decision, then
// run rounds of commit-adopt — write A[i], read every A[j], write B[i]
// with the commit flag, read every B[j], adopt — until a round commits
// (write the decision) or the decision register is set. Local state
// (the adopted value, the scan results) lives in the frame; the lazy
// c.round(r) allocation runs at the end of the Step that decides to
// enter round r.
type commitAdoptFrame struct {
	c   *CommitAdoptOF
	v   history.Value // current proposal (adopted value after each round)
	pc  int
	rnd *caRound // round being executed (allocated by the preceding step)
	rix int      // index of rnd
	j   int      // scan index for caReadA / caReadB

	allSame   bool // phase-1 scan verdict
	committed history.Value
	hasCommit bool
	mixed     bool
}

// Begin implements sim.Stepped. The first access is the decision read,
// so the invocation window runs no object code.
func (c *CommitAdoptOF) Begin(p *sim.Proc, inv sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	return &commitAdoptFrame{c: c, v: inv.Arg}, nil, sim.StepPaused
}

// Step implements sim.Frame.
func (f *commitAdoptFrame) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	c := f.c
	i := p.ID() - 1
	switch f.pc {
	case caReadDecision:
		if d := c.decision.ReadW(p); d != nil {
			return d, sim.StepDone
		}
		f.rnd = c.round(f.rix)
		f.pc = caWriteA
	case caWriteA:
		f.rnd.a[i].WriteW(p, f.v)
		f.allSame = true
		f.j = 0
		f.pc = caReadA
	case caReadA:
		if av := f.rnd.a[f.j].ReadW(p); av != nil && av != f.v {
			f.allSame = false
		}
		if f.j++; f.j == len(f.rnd.a) {
			f.pc = caWriteB
		}
	case caWriteB:
		f.rnd.b[i].WriteW(p, bEntry{v: f.v, commit: f.allSame})
		f.hasCommit = false
		f.committed = nil
		f.mixed = false
		f.j = 0
		f.pc = caReadB
	case caReadB:
		if bv := f.rnd.b[f.j].ReadW(p); bv != nil {
			e := bv.(bEntry)
			if e.commit {
				if !f.hasCommit {
					f.hasCommit = true
					f.committed = e.v
				}
			} else {
				f.mixed = true
			}
		}
		if f.j++; f.j == len(f.rnd.b) {
			// Resolve the round: adopt, and commit iff some entry
			// committed and none adopted.
			if f.hasCommit {
				f.v = f.committed
				if !f.mixed {
					f.pc = caWriteDecision
					break
				}
			}
			f.pc = caCheckDecision
		}
	case caWriteDecision:
		c.decision.WriteW(p, f.v)
		return f.v, sim.StepDone
	case caCheckDecision:
		if d := c.decision.ReadW(p); d != nil {
			return d, sim.StepDone
		}
		f.rix++
		f.rnd = c.round(f.rix)
		f.pc = caWriteA
	}
	return nil, sim.StepPaused
}

// Fork implements sim.Frame.
func (f *commitAdoptFrame) Fork() sim.Frame {
	c := *f
	return &c
}

// CASBased is wait-free consensus from one compare-and-swap object.
//
//slx:norecover the one CAS cell is modeled durable; a crashed proposer just stops
type CASBased struct {
	base.Mem
	c *base.CAS
}

// NewCASBased creates the implementation.
func NewCASBased() *CASBased {
	c := &CASBased{}
	c.c = base.NewCAS(&c.Mem, "C", nil)
	return c
}

// Apply implements sim.Object.
func (c *CASBased) Apply(p *sim.Proc, inv sim.Invocation) history.Value {
	return sim.ApplyFrames(c, p, inv)
}

// casBasedFrame is one in-flight propose: CAS(nil, arg), then read the
// winner.
type casBasedFrame struct {
	c    *CASBased
	arg  history.Value
	cast bool
}

// Begin implements sim.Stepped.
func (c *CASBased) Begin(p *sim.Proc, inv sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	return &casBasedFrame{c: c, arg: inv.Arg}, nil, sim.StepPaused
}

// Step implements sim.Frame.
func (f *casBasedFrame) Step(p *sim.Proc) (history.Value, sim.StepStatus) {
	if !f.cast {
		f.c.c.CompareAndSwapW(p, nil, f.arg)
		f.cast = true
		return nil, sim.StepPaused
	}
	return f.c.c.ReadW(p), sim.StepDone
}

// Fork implements sim.Frame.
func (f *casBasedFrame) Fork() sim.Frame {
	c := *f
	return &c
}

// Footprints implements sim.Footprinted: the only shared state is the
// single CAS object.
func (c *CASBased) Footprints() bool { return true }

// Fingerprint implements sim.Fingerprintable: the single CAS object
// holds proposal values compared by ==, i.e. by content, so the
// content encoding is canonical.
func (c *CASBased) Fingerprint(f *sim.Fingerprinter) { c.Fold(f) }

// Trivial is the implementation I_t from the proof of Theorem 4.9: it never
// responds to any invocation (every process blocks forever). It vacuously
// ensures every safety property that contains the invocation-only
// histories.
type Trivial struct{}

// Apply implements sim.Object.
func (t Trivial) Apply(p *sim.Proc, inv sim.Invocation) history.Value {
	return sim.ApplyFrames(t, p, inv)
}

// Begin implements sim.Stepped: every operation blocks in its
// invocation window.
func (Trivial) Begin(*sim.Proc, sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	return nil, nil, sim.StepBlocked
}

// RespondOnce is the implementation I_b from the proof of Theorem 4.9: the
// first invocation matching (Proc, Op, Arg) receives Resp; every other
// invocation by any process blocks forever.
type RespondOnce struct {
	// Proc, Op, Arg select the single invocation that gets a response.
	Proc int
	Op   string
	Arg  history.Value
	// Resp is the response it gets.
	Resp history.Value

	responded bool
}

// Apply implements sim.Object.
func (r *RespondOnce) Apply(p *sim.Proc, inv sim.Invocation) history.Value {
	return sim.ApplyFrames(r, p, inv)
}

// Begin implements sim.Stepped: the object takes no base-object step,
// so the selected invocation is answered, and every other one blocks,
// in its invocation window.
func (r *RespondOnce) Begin(p *sim.Proc, inv sim.Invocation) (sim.Frame, history.Value, sim.StepStatus) {
	if !r.responded && p.ID() == r.Proc && inv.Op == r.Op && inv.Arg == r.Arg {
		r.responded = true
		return nil, r.Resp, sim.StepDone
	}
	return nil, nil, sim.StepBlocked
}

// ProposeForever is the liveness environment: each process proposes its
// assigned value over and over.
func ProposeForever(values map[int]history.Value) sim.Environment {
	invs := make(map[int]sim.Invocation, len(values))
	for p, v := range values {
		invs[p] = sim.Invocation{Op: Propose, Arg: v}
	}
	return sim.RepeatPerProc(invs)
}

// ProposeOnce is the safety environment: each process proposes its value
// once.
func ProposeOnce(values map[int]history.Value) sim.Environment {
	invs := make(map[int]sim.Invocation, len(values))
	for p, v := range values {
		invs[p] = sim.Invocation{Op: Propose, Arg: v}
	}
	return sim.OneShot(invs)
}
