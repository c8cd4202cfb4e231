package safety

import (
	"testing"

	"repro/internal/history"
)

// fuzzTMMaxEvents bounds a fuzzed TM history: the oracle re-runs the
// from-scratch search on every prefix of every prefix.
const fuzzTMMaxEvents = 48

// fuzzTMValue decodes a value read or written: small ints, and a decimal
// spelling that must never be confused with its int.
func fuzzTMValue(r *fuzzBytes) history.Value {
	return []history.Value{0, 1, "1", 2}[r.intn(4)]
}

// fuzzTMResponse decodes the value answering an invocation of op: what a
// TM returns for it, or A.
func fuzzTMResponse(r *fuzzBytes, op string) history.Value {
	if r.intn(6) == 0 {
		return history.Abort
	}
	switch op {
	case history.TMRead:
		return fuzzTMValue(r)
	case history.TMTryC:
		return history.Commit
	}
	return history.OK
}

// fuzzTMHistory decodes an arbitrary TM event sequence over procs
// processes. Most steps are well formed: a process outside a
// transaction invokes start, one inside invokes read, write or tryC, and
// an open invocation gets a response of its own name. The rest are the
// sequences history.Transactions must still group: crashes, recoveries,
// invocations while one is open, responses with no open invocation, and
// responses whose op name and value differ from the open invocation's
// (ret[tryC]=C answering an open write commits its transaction).
func fuzzTMHistory(r *fuzzBytes, procs, maxEvents int) history.History {
	vars := []string{"x", "y"}
	ops := []string{history.TMStart, history.TMRead, history.TMWrite, history.TMTryC}
	open := make([]string, procs+1) // the open invocation's op, "" if none
	inTx := make([]bool, procs+1)
	var h history.History
	invoke := func(p int, op string) {
		var e history.Event
		switch op {
		case history.TMRead:
			e = history.InvokeObj(p, op, vars[r.intn(2)], nil)
		case history.TMWrite:
			e = history.InvokeObj(p, op, vars[r.intn(2)], fuzzTMValue(r))
		default:
			e = history.Invoke(p, op, nil)
		}
		h = append(h, e)
		open[p] = op
		inTx[p] = true
	}
	respond := func(p int, op string, v history.Value) {
		h = append(h, history.Response(p, op, v))
		if v == history.Abort || v == history.Commit {
			inTx[p] = false
		}
		open[p] = ""
	}
	for len(r.b) > 0 && len(h) < maxEvents {
		p := 1 + r.intn(procs)
		switch k := r.intn(32); {
		case k == 0:
			h = append(h, history.Crash(p))
		case k == 1:
			h = append(h, history.Recover(p))
			open[p], inTx[p] = "", false
		case k == 2:
			op := ops[r.intn(4)]
			respond(p, op, fuzzTMResponse(r, ops[r.intn(4)]))
		case k == 3:
			invoke(p, ops[r.intn(4)])
		case open[p] != "":
			respond(p, open[p], fuzzTMResponse(r, open[p]))
		case !inTx[p]:
			invoke(p, history.TMStart)
		default:
			invoke(p, ops[1+r.intn(3)])
		}
	}
	return h
}

// tmProps are the three TM properties: how to spawn each monitor, and
// the from-scratch judgment it must match at every prefix.
var tmProps = []struct {
	name         string
	strict, rule bool
	spawn        func() *TMMonitor
}{
	{"opacity", false, false, NewOpacityMonitor},
	{"strict-serializability", true, false, NewStrictSerializabilityMonitor},
	{"property-S", false, true, NewPropertySMonitor},
}

// eagerTMDigest is TMMonitor.StateDigest's specification: the flags,
// then the history digest folded event by event as the monitor consumed
// them.
func eagerTMDigest(strict, rule, failed bool, d history.HistoryDigest) (uint64, bool) {
	h, ok := d.Sum()
	f := history.NewFingerprinter()
	f.Str("tm")
	f.Bool(strict)
	f.Bool(rule)
	f.Bool(failed)
	f.Uint64(h)
	return f.Sum(), ok
}

// checkTMDigests steps a monitor of every TM property through h and
// compares its StateDigest with the eager fold at the prefixes read
// picks, so the lazy cursor folds runs of events of every length; at
// forkAt it forks, and the fork and the parent are stepped and
// digested side by side.
func checkTMDigests(t *testing.T, h history.History, forkAt int, read func(i int) bool) {
	t.Helper()
	for _, p := range tmProps {
		m := p.spawn()
		var fork *TMMonitor
		var eager history.HistoryDigest
		consumed := true
		check := func(who string, m *TMMonitor, i int) {
			got, gok := m.StateDigest()
			want, wok := eagerTMDigest(p.strict, p.rule, !m.OK(), eager)
			if got != want || gok != wok {
				t.Fatalf("%s %s: digest %d/%v, eager fold %d/%v after event %d of %s", p.name, who, got, gok, want, wok, i, h)
			}
		}
		for i, e := range h {
			if i == forkAt {
				fork = m.Fork(nil).(*TMMonitor)
			}
			if consumed {
				eager.Append(e)
			}
			consumed = m.Step(e)
			if fork != nil {
				if fork.Step(e) != consumed {
					t.Fatalf("%s: fork and parent disagree at event %d of %s", p.name, i+1, h)
				}
				if read(i) {
					check("fork", fork, i+1)
				}
			}
			if read(i) {
				check("monitor", m, i+1)
			}
		}
		check("monitor", m, len(h))
	}
}

// shiftProcs renames process p to p%procs+1 in every event, so a fork
// fed the result diverges from its parent on every process's records.
func shiftProcs(h history.History, procs int) history.History {
	out := make(history.History, len(h))
	for i, e := range h {
		e.Proc = e.Proc%procs + 1
		out[i] = e
	}
	return out
}

// FuzzTMMonitor drives the opacity, strict-serializability and
// property-S monitors with TM event sequences decoded from the fuzz
// input and requires, at every prefix, the verdict of the from-scratch
// judgment (oracleTM: history.Transactions and the search rebuilt for
// every response prefix, and the timestamp rule over all groups), for
// the monitor and for a fork taken at a decoded point, and again when
// the fork is fed the rest of the history with its processes renamed
// while the parent goes on. It also requires StateDigest to equal the
// eager fold of the consumed events. The header picks 1–4 processes,
// the fork point and the digest cadence.
//
// The seed corpus in testdata/fuzz/FuzzTMMonitor holds a ret[tryC]=C
// answering an open write (it commits the transaction and its write), a
// qualifying three-process group whose last member commits, and a crash
// and recovery inside a transaction with a pending tryC.
func FuzzTMMonitor(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzBytes{b: data}
		procs := 1 + r.intn(4)
		fork := r.intn(256)
		cadence := 1 + r.intn(4)
		h := fuzzTMHistory(r, procs, fuzzTMMaxEvents)
		forkAt := fork % (len(h) + 1)
		for _, p := range tmProps {
			spawn, oracle := func() Monitor { return p.spawn() }, oracleTM(p.strict, p.rule)
			crossCheck(t, p.name, spawn, oracle, h, forkAt)
			checkForkIndependence(t, p.name, spawn, oracle, h, shiftProcs(h[forkAt:], procs), forkAt, nil)
		}
		checkTMDigests(t, h, forkAt, func(i int) bool { return i%cadence == 0 })
	})
}
