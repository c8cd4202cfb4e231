package safety

import (
	"testing"

	"repro/internal/history"
)

// fuzzBytes decodes a fuzz input one choice at a time; an exhausted input
// reads as zeros.
type fuzzBytes struct{ b []byte }

func (r *fuzzBytes) intn(n int) int {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return int(c) % n
}

const (
	// fuzzMaxCrashes bounds the crashes of one fuzzed history: under
	// plain linearizability every crash leaves an operation pending for
	// good, and both the monitor's and the oracle's work grow with the
	// number of operations pending.
	fuzzMaxCrashes = 2
	// fuzzMaxOps bounds a history that is linearizable by construction,
	// far past the 63 operations a mask indexed by history position holds.
	fuzzMaxOps = 300
)

// fuzzPayloads are the items a fuzzed queue or stack history enqueues
// or pushes: string payloads, "1" next to the int 1 (both render as 1,
// so both come back as the string "1"), and payloads holding the ':'
// and ',' that the specs' length-prefixed string states are built from.
var fuzzPayloads = []history.Value{"1", 1, "a:1", "b,c", ":", ",", ""}

// fuzzItems are the responses a fuzzed dequeue or pop decodes: every
// payload's rendering, EmptyResp, and the int 1, which no string state
// ever returns.
var fuzzItems = []history.Value{"1", 1, "a:1", "b,c", ":", ",", "", EmptyResp}

// fuzzInvoke decodes an invocation of process p on spec's object: a
// register (read, write), a compare-and-swap object (read, write, cas),
// a queue (enq, deq), a stack (push, pop), a counter (inc, get) or a
// snapshot (update, scan).
func fuzzInvoke(r *fuzzBytes, p int, spec SeqSpec) history.Event {
	switch spec.(type) {
	case QueueSpec:
		if r.intn(2) == 0 {
			return history.Invoke(p, "enq", fuzzPayloads[r.intn(len(fuzzPayloads))])
		}
		return history.Invoke(p, "deq", nil)
	case StackSpec:
		if r.intn(2) == 0 {
			return history.Invoke(p, "push", fuzzPayloads[r.intn(len(fuzzPayloads))])
		}
		return history.Invoke(p, "pop", nil)
	case CounterSpec:
		if r.intn(2) == 0 {
			return history.Invoke(p, "inc", nil)
		}
		return history.Invoke(p, "get", nil)
	case SnapshotSpec:
		if r.intn(2) == 0 {
			return history.Invoke(p, "update", r.intn(2))
		}
		return history.Invoke(p, "scan", nil)
	}
	_, cas := spec.(CASSpec)
	kinds := 2
	if cas {
		kinds = 3
	}
	switch r.intn(kinds) {
	case 0:
		return history.Invoke(p, "read", nil)
	case 1:
		return history.Invoke(p, "write", r.intn(3))
	default:
		return history.Invoke(p, "cas", CASArg{Old: r.intn(3), New: r.intn(3)})
	}
}

// fuzzResponse decodes an arbitrary response to inv on spec's object.
func fuzzResponse(r *fuzzBytes, inv history.Event, spec SeqSpec) history.Value {
	switch inv.Op {
	case "read", "inc", "get":
		return r.intn(3)
	case "write", "enq", "push", "update":
		return history.OK
	case "deq", "pop":
		return fuzzItems[r.intn(len(fuzzItems))]
	case "scan":
		vec := make([]history.Value, spec.(SnapshotSpec).N)
		for i := range vec {
			vec[i] = r.intn(2)
		}
		return EncodeVector(vec)
	default:
		return r.intn(2) == 0
	}
}

// fuzzProc is one process of a fuzzed history.
type fuzzProc struct {
	inv     history.Event // its open invocation, if open
	open    bool
	crashed bool
	applied bool          // inv has taken effect on the spec
	resp    history.Value // the response inv took effect with
}

// fuzzHistory decodes a well-formed history of at most maxOps operations
// over procs processes of spec's object, with crash and recover events:
// every step picks a process, which recovers if crashed, may crash, and
// otherwise invokes or responds. Unless lin is set, a response carries a
// decoded value. With lin set, an open operation first takes effect on
// spec at a decoded step inside its interval and then responds with what
// it took effect with, and a crash drops its process's open operation,
// applied or not: the history is linearizable, and strictly so, by
// construction.
func fuzzHistory(r *fuzzBytes, procs, maxOps int, spec SeqSpec, lin bool) history.History {
	ps := make([]fuzzProc, procs+1)
	st := spec.Init()
	var h history.History
	ops, crashes := 0, 0
	for len(r.b) > 0 && ops < maxOps {
		p := 1 + r.intn(procs)
		s := &ps[p]
		switch {
		case s.crashed:
			if r.intn(2) == 0 {
				h = append(h, history.Recover(p))
				*s = fuzzProc{}
			}
		case r.intn(8) == 7 && crashes < fuzzMaxCrashes:
			h = append(h, history.Crash(p))
			s.crashed = true
			crashes++
		case !s.open:
			s.inv, s.open, s.applied = fuzzInvoke(r, p, spec), true, false
			h = append(h, s.inv)
			ops++
		case lin && !s.applied:
			tr := spec.Apply(st, p, s.inv.Op, s.inv.Obj, s.inv.Arg)[0]
			st, s.resp, s.applied = tr.Next, tr.Resp, true
		default:
			if !lin {
				s.resp = fuzzResponse(r, s.inv, spec)
			}
			h = append(h, history.Response(p, s.inv.Op, s.resp))
			s.open = false
		}
	}
	return h
}

// fuzzSpecs are the objects FuzzLinMonitor's header picks from. Queue
// and stack histories carry the string payloads of fuzzPayloads, so the
// oracle compares the monitor on payloads that render alike or hold
// the string states' delimiters.
var fuzzSpecs = []SeqSpec{RegisterSpec{Initial: 0}, CASSpec{Initial: 0}, QueueSpec{}, StackSpec{}}

// FuzzLinMonitor cross-checks the plain and strict linearizability
// monitors on histories decoded from the fuzz input. Its header picks
// the mode, the object (register, compare-and-swap, queue or stack),
// 1–4 processes and a fork point.
//
//   - Arbitrary histories with crash and recover events: at every prefix
//     of at most maxOracleOps operations both monitors, and forks of them
//     taken at the fork point, must agree with the Wing–Gong oracle.
//   - Histories linearizable by construction, of up to fuzzMaxOps
//     operations: both monitors, and their forks, must accept every
//     prefix.
//
// The seed corpus in testdata/fuzz/FuzzLinMonitor holds a 64-operation
// sequential history, which a monitor indexing its masks by history
// position rejects at the 64th invocation.
func FuzzLinMonitor(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzBytes{b: data}
		byConstruction := r.intn(2) == 1
		spec := fuzzSpecs[r.intn(len(fuzzSpecs))]
		procs := 1 + r.intn(4)
		fork := r.intn(256)
		spawns := []func(SeqSpec) *LinMonitor{NewLinMonitor, NewStrictLinMonitor}
		if !byConstruction {
			h := fuzzHistory(r, procs, maxOracleOps, spec, false)
			for i, spawn := range spawns {
				strict := i == 1
				name := "linearizability(" + spec.Name() + ")"
				if strict {
					name = "strict-" + name
				}
				crossCheck(t, name, func() Monitor { return spawn(spec) },
					func(h history.History) bool { return oracleLinearizable(spec, h, strict) },
					h, fork%(len(h)+1))
			}
			return
		}
		h := fuzzHistory(r, procs, fuzzMaxOps, spec, true)
		forkAt := fork % (len(h) + 1)
		for _, spawn := range spawns {
			m := spawn(spec)
			var fm Monitor
			for i, e := range h {
				if i == forkAt {
					fm = m.Fork(nil)
				}
				if !m.Step(e) || (fm != nil && !fm.Step(e)) {
					t.Fatalf("strict=%v: linearizable prefix rejected at event %d (fork at %d) of %s", m.strict, i+1, forkAt, h)
				}
			}
		}
	})
}
