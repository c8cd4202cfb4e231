package safety

// Monitor-equivalence harness: every incremental checker is cross-checked
// against an oracle on randomized histories — synthetic random
// interleavings (which violate the properties often) and histories
// produced by real implementations under randomized schedules (which do
// not). At every prefix the monitor's verdict must equal the oracle's,
// before and after forking, and forks must be independent of their
// parents.
//
// Every checker's batch Holds is itself derived from its monitor via
// BatchAdapter, so the oracles are independent re-implementations: the
// original one-pass scans below for agreement+validity, k-set and mutual
// exclusion, the memoized Wing–Gong search of linoracle_test.go for
// (strict) linearizability, and the from-scratch TM judgment of
// opacity_oracle_test.go, so the cross-check is not circular.

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/history"
)

// oracleAgreementValidity is the original one-pass agreement+validity
// scan, kept as an independent oracle.
func oracleAgreementValidity(h history.History) bool {
	proposed := make(map[history.Value]bool)
	var decided history.Value
	haveDecision := false
	for _, e := range h {
		switch {
		case e.Kind == history.KindInvoke && e.Op == ConsensusPropose:
			proposed[e.Arg] = true
		case e.Kind == history.KindResponse && e.Op == ConsensusPropose:
			if !proposed[e.Val] {
				return false
			}
			if haveDecision && decided != e.Val {
				return false
			}
			decided = e.Val
			haveDecision = true
		}
	}
	return true
}

// oracleKSet is the original one-pass k-set agreement scan.
func oracleKSet(k int) func(history.History) bool {
	return func(h history.History) bool {
		proposed := make(map[history.Value]bool)
		decided := make(map[history.Value]bool)
		for _, e := range h {
			switch {
			case e.Kind == history.KindInvoke && e.Op == ConsensusPropose:
				proposed[e.Arg] = true
			case e.Kind == history.KindResponse && e.Op == ConsensusPropose:
				if !proposed[e.Val] {
					return false
				}
				decided[e.Val] = true
				if len(decided) > k {
					return false
				}
			}
		}
		return true
	}
}

// oracleMutex is the original one-pass mutual-exclusion scan.
func oracleMutex(h history.History) bool {
	holder := 0
	for _, e := range h {
		switch {
		case e.Kind == history.KindResponse && e.Op == LockAcquire:
			if holder != 0 {
				return false
			}
			holder = e.Proc
		case e.Kind == history.KindInvoke && e.Op == LockRelease:
			if holder != e.Proc {
				return false
			}
			holder = 0
		}
	}
	return true
}

// stickyOracle wraps a prefix-monotone batch predicate so that, like a
// monitor, it stays false after the first violating prefix. The
// properties under test are prefix-closed, so the wrapper only papers
// over floating differences it would itself expose via the monotonicity
// check below.
type stickyOracle struct {
	holds  func(history.History) bool
	failed bool
}

func (o *stickyOracle) at(t *testing.T, h history.History) bool {
	ok := o.holds(h)
	if o.failed && ok {
		t.Fatalf("oracle is not prefix-monotone: holds again at %d events on %s", len(h), h)
	}
	if !ok {
		o.failed = true
	}
	return !o.failed
}

// crossCheck drives one monitor through h, comparing with the oracle at
// every prefix; midway it forks a child and checks (a) the child agrees
// with the oracle on the remaining events, and (b) feeding the child does
// not disturb the parent.
func crossCheck(t *testing.T, name string, spawn func() Monitor, oracle func(history.History) bool, h history.History, forkAt int) {
	t.Helper()
	m := spawn()
	ora := &stickyOracle{holds: oracle}
	var fork Monitor
	forkOra := &stickyOracle{}
	for i, e := range h {
		if i == forkAt {
			fork = m.Fork(nil)
			*forkOra = *ora
			forkOra.holds = ora.holds
		}
		ok := m.Step(e)
		want := ora.at(t, h[:i+1])
		if ok != want || m.OK() != want {
			t.Fatalf("%s: monitor=%v/%v oracle=%v at event %d (%s) of %s", name, ok, m.OK(), want, i+1, e, h)
		}
		if fork != nil {
			fok := fork.Step(e)
			fwant := forkOra.at(t, h[:i+1])
			if fok != fwant || fork.OK() != fwant {
				t.Fatalf("%s: fork=%v/%v oracle=%v at event %d of %s", name, fok, fork.OK(), fwant, i+1, h)
			}
		}
	}
	// Fork independence: a fresh fork fed a divergent suffix must not
	// disturb the parent's verdict.
	parentVerdict := m.OK()
	div := m.Fork(nil)
	for i := len(h) - 1; i >= 0 && i >= len(h)-4; i-- {
		div.Step(h[i])
	}
	if m.OK() != parentVerdict {
		t.Fatalf("%s: stepping a fork changed the parent's verdict on %s", name, h)
	}
}

// checkForkIndependence forks a monitor after h[:forkAt], into dst, and
// steps the parent through the rest of h and the fork through alt, one
// event each in turn, the fork first, so an append by either into
// storage they share would show; each must match a fresh oracle on its
// own history. crossCheck cannot see such sharing: its fork follows the
// parent's own events, and it never steps the parent after a divergent
// fork. It returns the parent, which a later call may fork into.
func checkForkIndependence(t *testing.T, name string, spawn func() Monitor, oracle func(history.History) bool, h, alt history.History, forkAt int, dst Monitor) Monitor {
	t.Helper()
	m := spawn()
	for _, e := range h[:forkAt] {
		m.Step(e)
	}
	fork := m.Fork(dst)
	hf := append(h[:forkAt:forkAt], alt...)
	mo := &stickyOracle{holds: oracle}
	fo := &stickyOracle{holds: oracle}
	mo.at(t, h[:forkAt])
	fo.at(t, h[:forkAt])
	for i := forkAt; i < len(h) || i < len(hf); i++ {
		if i < len(hf) {
			if got, want := fork.Step(hf[i]), fo.at(t, hf[:i+1]); got != want {
				t.Fatalf("%s: fork=%v oracle=%v at event %d of %s (forked at %d from %s)", name, got, want, i+1, hf, forkAt, h)
			}
		}
		if i < len(h) {
			if got, want := m.Step(h[i]), mo.at(t, h[:i+1]); got != want {
				t.Fatalf("%s: monitor=%v oracle=%v at event %d of %s (fork stepped %s)", name, got, want, i+1, h, hf)
			}
		}
	}
	return m
}

// altSuffix returns another continuation of the prefix suffix follows:
// suffix's events merged in a random order that keeps each process's
// own order, with every int argument and value redrawn from {0, 1, 2},
// CAS arguments and boolean responses included. Each process's events
// stay well-formed after the prefix; the global order, the values, and
// with them the verdicts and the monitor's per-process bookkeeping
// diverge.
func altSuffix(r *rand.Rand, suffix history.History) history.History {
	byProc := make(map[int]history.History)
	var procs []int
	for _, e := range suffix {
		if len(byProc[e.Proc]) == 0 {
			procs = append(procs, e.Proc)
		}
		byProc[e.Proc] = append(byProc[e.Proc], e)
	}
	out := make(history.History, 0, len(suffix))
	for len(procs) > 0 {
		i := r.Intn(len(procs))
		p := procs[i]
		e := byProc[p][0]
		if byProc[p] = byProc[p][1:]; len(byProc[p]) == 0 {
			procs = append(procs[:i], procs[i+1:]...)
		}
		switch e.Arg.(type) {
		case int:
			e.Arg = r.Intn(3)
		case CASArg:
			e.Arg = CASArg{Old: r.Intn(3), New: r.Intn(3)}
		}
		switch e.Val.(type) {
		case int:
			e.Val = r.Intn(3)
		case bool:
			e.Val = r.Intn(2) == 0
		}
		out = append(out, e)
	}
	return out
}

// TestMonitorForkIndependence gives every monitor outside the TM family
// (which FuzzTMMonitor covers) the interleaved fork check: after a
// random prefix, the parent goes on with the rest of its history and
// the fork with altSuffix of it. Each fork but the first overwrites the
// previous history's parent.
func TestMonitorForkIndependence(t *testing.T) {
	reg, cas := RegisterSpec{Initial: 0}, CASSpec{Initial: 0}
	lin := func(spec SeqSpec, strict bool) func(history.History) bool {
		return func(h history.History) bool { return oracleLinearizable(spec, h, strict) }
	}
	consensus := func(r *rand.Rand) history.History { return randConsensusHistory(r, 3, 4+r.Intn(20)) }
	register := func(r *rand.Rand) history.History { return randRegisterHistory(r, 3, 4+r.Intn(16)) }
	crashRegister := func(r *rand.Rand) history.History { return randCrashRegisterHistory(r, 3, 4+r.Intn(16)) }
	families := []struct {
		name   string
		spawn  func() Monitor
		oracle func(history.History) bool
		gen    func(r *rand.Rand) history.History
	}{
		{"agreement+validity", AgreementValidity{}.Spawn, oracleAgreementValidity, consensus},
		{"1-set agreement", KSetAgreement{K: 1}.Spawn, oracleKSet(1), consensus},
		{"2-set agreement", KSetAgreement{K: 2}.Spawn, oracleKSet(2), consensus},
		{"mutual exclusion", MutualExclusion{}.Spawn, oracleMutex,
			func(r *rand.Rand) history.History { return randMutexHistory(r, 3, 4+r.Intn(20)) }},
		{"linearizability(register)", func() Monitor { return NewLinMonitor(reg) }, lin(reg, false), register},
		{"linearizability(register), crash+recover", func() Monitor { return NewLinMonitor(reg) }, lin(reg, false), crashRegister},
		{"linearizability(cas)", func() Monitor { return NewLinMonitor(cas) }, lin(cas, false),
			func(r *rand.Rand) history.History { return randCASHistory(r, 3, 4+r.Intn(14)) }},
		{"strict linearizability(register)", func() Monitor { return NewStrictLinMonitor(reg) }, lin(reg, true),
			func(r *rand.Rand) history.History { return crashStop(r, register(r)) }},
		{"strict linearizability(register), crash+recover", func() Monitor { return NewStrictLinMonitor(reg) }, lin(reg, true), crashRegister},
	}
	for _, fam := range families {
		r := rand.New(rand.NewSource(12))
		var used Monitor
		for i := 0; i < 200; i++ {
			h := fam.gen(r)
			at := r.Intn(len(h) + 1)
			used = checkForkIndependence(t, fam.name, fam.spawn, fam.oracle, h, altSuffix(r, h[at:]), at, used)
		}
	}
}

// randConsensusHistory interleaves propose invocations and randomly
// chosen (often invalid) decisions for n processes.
func randConsensusHistory(r *rand.Rand, n, events int) history.History {
	var h history.History
	pending := make(map[int]bool)
	for len(h) < events {
		p := 1 + r.Intn(n)
		if pending[p] {
			h = append(h, history.Response(p, ConsensusPropose, r.Intn(3)))
			pending[p] = false
		} else {
			h = append(h, history.Invoke(p, ConsensusPropose, r.Intn(3)))
			pending[p] = true
		}
	}
	return h
}

// randMutexHistory interleaves acquire/release cycles with responses
// granted blindly, so overlapping critical sections appear often.
func randMutexHistory(r *rand.Rand, n, events int) history.History {
	type st int // 0 idle, 1 acquiring, 2 holding, 3 releasing
	state := make(map[int]st)
	var h history.History
	for len(h) < events {
		p := 1 + r.Intn(n)
		switch state[p] {
		case 0:
			h = append(h, history.Invoke(p, LockAcquire, nil))
			state[p] = 1
		case 1:
			h = append(h, history.Response(p, LockAcquire, "locked"))
			state[p] = 2
		case 2:
			// Sometimes a non-holder "releases" on behalf of another
			// process id to exercise the release-by-non-holder branch.
			q := p
			if r.Intn(8) == 0 {
				q = 1 + r.Intn(n)
			}
			h = append(h, history.Invoke(q, LockRelease, nil))
			state[p] = 3
		case 3:
			h = append(h, history.Response(p, LockRelease, "unlocked"))
			state[p] = 0
		}
	}
	return h
}

// randRegisterHistory generates overlapping reads and writes with read
// responses drawn randomly from the small value domain, yielding a mix
// of linearizable and non-linearizable histories.
func randRegisterHistory(r *rand.Rand, n, events int) history.History {
	var h history.History
	type pend struct {
		op  string
		arg history.Value
	}
	pending := make(map[int]*pend)
	for len(h) < events {
		p := 1 + r.Intn(n)
		if pd := pending[p]; pd != nil {
			if r.Intn(3) == 0 {
				continue // leave it pending a while longer
			}
			if pd.op == "read" {
				h = append(h, history.Response(p, "read", r.Intn(3)))
			} else {
				h = append(h, history.Response(p, "write", history.OK))
			}
			pending[p] = nil
			continue
		}
		if r.Intn(2) == 0 {
			h = append(h, history.Invoke(p, "read", nil))
			pending[p] = &pend{op: "read"}
		} else {
			v := r.Intn(3)
			h = append(h, history.Invoke(p, "write", v))
			pending[p] = &pend{op: "write", arg: v}
		}
	}
	return h
}

// randTMHistory generates small random transactions (start, reads and
// writes on two variables, tryC) with randomly invented read values and
// commit/abort outcomes — opacity violations are frequent.
func randTMHistory(r *rand.Rand, n, events int) history.History {
	vars := []string{"x", "y"}
	type st struct{ phase, ops int }
	state := make(map[int]*st)
	var h history.History
	for len(h) < events {
		p := 1 + r.Intn(n)
		s := state[p]
		if s == nil {
			s = &st{}
			state[p] = s
		}
		switch s.phase {
		case 0:
			h = append(h, history.Invoke(p, history.TMStart, nil))
			s.phase = 1
		case 1:
			h = append(h, history.Response(p, history.TMStart, history.OK))
			s.phase = 2
			s.ops = 1 + r.Intn(2)
		case 2:
			v := vars[r.Intn(len(vars))]
			if r.Intn(2) == 0 {
				h = append(h,
					history.InvokeObj(p, history.TMRead, v, nil),
					history.ResponseObj(p, history.TMRead, v, r.Intn(2)))
			} else {
				h = append(h,
					history.InvokeObj(p, history.TMWrite, v, r.Intn(2)+1),
					history.ResponseObj(p, history.TMWrite, v, history.OK))
			}
			s.ops--
			if s.ops <= 0 {
				s.phase = 3
			}
		case 3:
			h = append(h, history.Invoke(p, history.TMTryC, nil))
			s.phase = 4
		case 4:
			out := history.Value(history.Commit)
			if r.Intn(3) == 0 {
				out = history.Abort
			}
			h = append(h, history.Response(p, history.TMTryC, out))
			s.phase = 0
		}
	}
	return h
}

func TestMonitorEquivalenceAgreementValidity(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		h := randConsensusHistory(r, 3, 4+r.Intn(20))
		crossCheck(t, "agreement+validity", AgreementValidity{}.Spawn, oracleAgreementValidity, h, r.Intn(len(h)))
	}
}

func TestMonitorEquivalenceKSet(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, k := range []int{1, 2} {
		p := KSetAgreement{K: k}
		for i := 0; i < 300; i++ {
			h := randConsensusHistory(r, 3, 4+r.Intn(20))
			crossCheck(t, p.Name(), p.Spawn, oracleKSet(k), h, r.Intn(len(h)))
		}
	}
}

func TestMonitorEquivalenceMutex(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		h := randMutexHistory(r, 3, 4+r.Intn(20))
		crossCheck(t, "mutual-exclusion", MutualExclusion{}.Spawn, oracleMutex, h, r.Intn(len(h)))
	}
}

func TestMonitorEquivalenceLinearizability(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	spec := RegisterSpec{Initial: 0}
	spawn := func() Monitor { return NewLinMonitor(spec) }
	oracle := func(h history.History) bool { return oracleLinearizable(spec, h, false) }
	for i := 0; i < 300; i++ {
		h := randRegisterHistory(r, 3, 4+r.Intn(16))
		crossCheck(t, "linearizability(register)", spawn, oracle, h, r.Intn(len(h)))
	}
	// Crashed operations stay pending, and keep their slots, while their
	// recovered processes invoke afresh.
	for i := 0; i < 300; i++ {
		h := randCrashRegisterHistory(r, 3, 4+r.Intn(20))
		crossCheck(t, "linearizability(register), crash+recover", spawn, oracle, h, r.Intn(len(h)))
	}
	// Also against the CAS specification, whose responses depend on state.
	cas := CASSpec{Initial: 0}
	spawnCAS := func() Monitor { return NewLinMonitor(cas) }
	oracleCAS := func(h history.History) bool { return oracleLinearizable(cas, h, false) }
	for i := 0; i < 200; i++ {
		h := randCASHistory(r, 3, 4+r.Intn(14))
		crossCheck(t, "linearizability(cas)", spawnCAS, oracleCAS, h, r.Intn(len(h)))
	}
}

// randCASHistory mixes read/write/cas operations with random responses.
func randCASHistory(r *rand.Rand, n, events int) history.History {
	var h history.History
	type pend struct{ op string }
	pending := make(map[int]*pend)
	for len(h) < events {
		p := 1 + r.Intn(n)
		if pd := pending[p]; pd != nil {
			switch pd.op {
			case "read":
				h = append(h, history.Response(p, "read", r.Intn(3)))
			case "write":
				h = append(h, history.Response(p, "write", history.OK))
			case "cas":
				h = append(h, history.Response(p, "cas", r.Intn(2) == 0))
			}
			pending[p] = nil
			continue
		}
		switch r.Intn(3) {
		case 0:
			h = append(h, history.Invoke(p, "read", nil))
			pending[p] = &pend{op: "read"}
		case 1:
			h = append(h, history.Invoke(p, "write", r.Intn(3)))
			pending[p] = &pend{op: "write"}
		default:
			h = append(h, history.Invoke(p, "cas", CASArg{Old: r.Intn(3), New: r.Intn(3)}))
			pending[p] = &pend{op: "cas"}
		}
	}
	return h
}

// The TM monitors are checked against the from-scratch oracle
// (oracleTM: history.Transactions and the search on every response
// prefix, the timestamp rule over every group) on two generators:
// randTMHistory, whose invented reads violate opacity often, and the
// biased randomTMHistory, whose histories mostly serialize and often
// hold overlapping committed writers followed by a reader.
func TestMonitorEquivalenceOpacity(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 150; i++ {
		h := randTMHistory(r, 2, 6+r.Intn(24))
		crossCheck(t, "opacity", Opacity{}.Spawn, oracleTM(false, false), h, r.Intn(len(h)))
		h = randomTMHistory(r, 2, 24+r.Intn(24))
		crossCheck(t, "opacity", Opacity{}.Spawn, oracleTM(false, false), h, r.Intn(len(h)))
	}
}

func TestMonitorEquivalenceStrictSerializability(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	p := StrictSerializability{}
	for i := 0; i < 150; i++ {
		h := randTMHistory(r, 2, 6+r.Intn(24))
		crossCheck(t, p.Name(), p.Spawn, oracleTM(true, false), h, r.Intn(len(h)))
		h = randomTMHistory(r, 2, 24+r.Intn(24))
		crossCheck(t, p.Name(), p.Spawn, oracleTM(true, false), h, r.Intn(len(h)))
	}
}

func TestMonitorEquivalencePropertyS(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	p := PropertyS{}
	for i := 0; i < 120; i++ {
		h := randTMHistory(r, 3, 6+r.Intn(24))
		crossCheck(t, p.Name(), p.Spawn, oracleTM(false, true), h, r.Intn(len(h)))
		h = randomTMHistory(r, 3, 24+r.Intn(24))
		crossCheck(t, p.Name(), p.Spawn, oracleTM(false, true), h, r.Intn(len(h)))
	}
}

// Digester contract. The state cache prunes a prefix whose configuration
// fingerprint and monitor digest equal those of an explored state, which
// is sound only if monitor states with equal digests have equal futures;
// its hits come from digests that forget how a state was reached.

// digestOf returns m's residual-state digest, failing the test when m
// cannot digest.
func digestOf(t *testing.T, m Monitor) uint64 {
	t.Helper()
	d, ok := m.(history.Digester).StateDigest()
	if !ok {
		t.Fatalf("%T cannot digest its state", m)
	}
	return d
}

// crashStop crashes one random process of h at a random point: a crash
// event there, and none of the process's later events.
func crashStop(r *rand.Rand, h history.History) history.History {
	p, at := 1+r.Intn(3), r.Intn(len(h)+1)
	out := append(h[:at:at], history.Crash(p))
	for _, e := range h[at:] {
		if e.Proc != p {
			out = append(out, e)
		}
	}
	return out
}

// digestFamily is one monitor family under the digest contract.
type digestFamily struct {
	name  string
	spawn func() Monitor
	gen   func(r *rand.Rand) history.History
}

func digestFamilies() []digestFamily {
	consensus := func(r *rand.Rand) history.History { return randConsensusHistory(r, 3, 4+r.Intn(12)) }
	return []digestFamily{
		{name: "agreement+validity", spawn: AgreementValidity{}.Spawn, gen: consensus},
		{name: "2-set agreement", spawn: KSetAgreement{K: 2}.Spawn, gen: consensus},
		{name: "mutual exclusion", spawn: MutualExclusion{}.Spawn,
			gen: func(r *rand.Rand) history.History { return randMutexHistory(r, 3, 4+r.Intn(12)) }},
		{name: "linearizability(register)", spawn: func() Monitor { return NewLinMonitor(RegisterSpec{Initial: 0}) },
			gen: func(r *rand.Rand) history.History { return randRegisterHistory(r, 3, 4+r.Intn(12)) }},
		{name: "linearizability(register), crash+recover", spawn: func() Monitor { return NewLinMonitor(RegisterSpec{Initial: 0}) },
			gen: func(r *rand.Rand) history.History { return randCrashRegisterHistory(r, 3, 4+r.Intn(14)) }},
		{name: "linearizability(cas)", spawn: func() Monitor { return NewLinMonitor(CASSpec{Initial: 0}) },
			gen: func(r *rand.Rand) history.History { return randCASHistory(r, 3, 4+r.Intn(12)) }},
		{name: "strict linearizability(register)", spawn: func() Monitor { return NewStrictLinMonitor(RegisterSpec{Initial: 0}) },
			gen: func(r *rand.Rand) history.History { return crashStop(r, randRegisterHistory(r, 3, 4+r.Intn(12))) }},
		{name: "opacity", spawn: Opacity{}.Spawn,
			gen: func(r *rand.Rand) history.History { return randTMHistory(r, 2, 6+r.Intn(12)) }},
	}
}

// TestDigestSoundness: two monitor states of one family with equal
// digests must return identical Step results on shared suffixes. The
// states are every prefix of random histories, grouped by digest; the
// suffixes shared by a group are its members' own continuations (each
// well-formed after any member, since equal digests fold equal pending
// operations). Opacity's digest is its history up to the first
// violation, so its different prefixes meet only once failed.
func TestDigestSoundness(t *testing.T) {
	const histories, suffixes = 300, 8
	type state struct {
		prefix, rest history.History
		m            Monitor
	}
	for _, fam := range digestFamilies() {
		r := rand.New(rand.NewSource(11))
		groups := make(map[uint64][]state)
		var order []uint64
		for i := 0; i < histories; i++ {
			h := fam.gen(r)
			m := fam.spawn()
			for k := 0; k <= len(h); k++ {
				if k > 0 {
					m.Step(h[k-1])
				}
				d := digestOf(t, m)
				if groups[d] == nil {
					order = append(order, d)
				}
				groups[d] = append(groups[d], state{h[:k], h[k:], m.Fork(nil)})
			}
		}
		pairs := 0
		for _, d := range order {
			g := groups[d]
			for _, b := range g[1:] {
				a := g[0]
				if a.prefix.Equal(b.prefix) {
					continue
				}
				pairs++
				for j := 0; j < suffixes; j++ {
					suffix := g[r.Intn(len(g))].rest
					ma, mb := a.m.Fork(nil), b.m.Fork(nil)
					for n, e := range suffix {
						if ma.Step(e) != mb.Step(e) {
							t.Fatalf("%s: equal digests, different verdicts at suffix event %d\nprefix a: %s\nprefix b: %s\nsuffix: %s",
								fam.name, n+1, a.prefix, b.prefix, suffix)
						}
					}
				}
			}
		}
		t.Logf("%s: %d pairs of different prefixes share a digest", fam.name, pairs)
		if pairs == 0 {
			t.Errorf("%s: no two different prefixes share a digest; the check is vacuous", fam.name)
		}
	}
}

// TestDigestForgetsInvocationOrder: swapping two adjacent invocations of
// different processes leaves the linearizability digest — plain and
// strict — equal after the pair and after any common suffix. Slots are
// taken in invocation order; the digest ranks pending operations and
// promises by process instead.
func TestDigestForgetsInvocationOrder(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	gens := []func(r *rand.Rand, n, events int) history.History{randRegisterHistory, randCASHistory}
	spawns := []func() Monitor{
		func() Monitor { return NewLinMonitor(CASSpec{Initial: 0}) },
		func() Monitor { return NewStrictLinMonitor(CASSpec{Initial: 0}) },
	}
	swaps := 0
	for i := 0; i < 300; i++ {
		h := crashStop(r, gens[i%2](r, 3, 6+r.Intn(12)))
		for j := 0; j+1 < len(h); j++ {
			x, y := h[j], h[j+1]
			if x.Kind != history.KindInvoke || y.Kind != history.KindInvoke || x.Proc == y.Proc {
				continue
			}
			swapped := slices.Clone(h)
			swapped[j], swapped[j+1] = y, x
			swaps++
			for _, spawn := range spawns {
				mh, ms := spawn(), spawn()
				for k := range h {
					mh.Step(h[k])
					ms.Step(swapped[k])
					if k > j && digestOf(t, mh) != digestOf(t, ms) {
						t.Fatalf("%T: swapping events %d and %d changed the digest after event %d:\n%s\n%s", mh, j+1, j+2, k+1, h, swapped)
					}
				}
			}
		}
	}
	if swaps == 0 {
		t.Fatal("no adjacent invocations of different processes generated")
	}
}

// TestDigestSeparatesCrashedPendingOps: under plain linearizability a
// crashed operation stays pending after its process recovers and
// invokes again. Two monitors that differ only in that crashed operation
// have different futures — a read of 1 is linearizable only if the
// crashed write wrote 1 — so their digests must differ. A digest that
// folds only each process's live operation equates them.
func TestDigestSeparatesCrashedPendingOps(t *testing.T) {
	after := func(v int) Monitor {
		m := NewLinMonitor(RegisterSpec{Initial: 0})
		for _, e := range []history.Event{
			history.Invoke(1, "write", v), history.Crash(1), history.Recover(1),
			history.Invoke(1, "read", nil),
		} {
			m.Step(e)
		}
		return m
	}
	m1, m2 := after(1), after(2)
	read1 := history.Response(1, "read", 1)
	if ok1, ok2 := m1.Fork(nil).Step(read1), m2.Fork(nil).Step(read1); !ok1 || ok2 {
		t.Fatalf("read of 1: accepted after write(1)=%v, after write(2)=%v; want true, false", ok1, ok2)
	}
	if digestOf(t, m1) == digestOf(t, m2) {
		t.Error("monitors whose crashed pending writes differ share a digest")
	}
}
