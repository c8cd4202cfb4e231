package safety

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/history"
	"repro/internal/quickseed"
)

// The from-scratch TM oracle: history.Transactions regroups the whole
// history, buildRecords derives the search records from the groups, and
// timestampRuleHolds re-checks the Section 5.3 rule over every group.
// It is the batch check TMMonitor replaced, kept as the reference the
// monitor's incremental records, skipped searches and one-group rule
// checks are tested against.

// buildRecords analyses a TM history into search records. ok=false when
// the history has too many transactions.
func buildRecords(h history.History) ([]*txRecord, bool) {
	txs := history.Transactions(h)
	if len(txs) > maxOpacityTxs {
		return nil, false
	}
	recs := make([]*txRecord, len(txs))
	for i, tx := range txs {
		r := &txRecord{}
		for _, op := range tx.Ops {
			switch {
			case op.Name == history.TMRead && op.Done && op.Val != history.Abort:
				r.steps = append(r.steps, txStep{isRead: true, v: op.Obj, val: op.Val})
			case op.Name == history.TMWrite && op.Done && op.Val != history.Abort:
				r.steps = append(r.steps, txStep{isRead: false, v: op.Obj, val: op.Arg})
			}
		}
		switch tx.Status {
		case history.TxCommitted:
			r.roles = []role{roleCommitted}
		case history.TxAborted:
			r.roles = []role{roleAborted}
		case history.TxLive:
			if pendingTryC(tx) {
				r.roles = []role{roleCommitted, roleAborted}
			} else {
				r.roles = []role{roleAborted}
			}
		}
		r.precede = newBitset(len(txs))
		for j, b := range txs {
			if i != j && history.TxPrecedes(b, tx) {
				r.precede.setBit(j)
			}
		}
		recs[i] = r
	}
	return recs, true
}

// pendingTryC reports whether the transaction's last operation is a tryC
// invocation without a response.
func pendingTryC(tx *history.Tx) bool {
	if len(tx.Ops) == 0 {
		return false
	}
	last := tx.Ops[len(tx.Ops)-1]
	return last.Name == history.TMTryC && !last.Done
}

// oracleSerializable runs the memoized search on h's records, rebuilt
// from scratch.
func oracleSerializable(h history.History, strict bool) bool {
	recs, ok := buildRecords(h)
	return ok && serializable(recs, strict)
}

// oracleTM is the judgment the TM monitors must reach on every prefix:
// every prefix ending in a response serializes (strictly, or opaquely
// with aborted and live transactions constrained too), and under the
// rule the timestamp rule holds. The rule is prefix-closed, so checking
// it on h covers every prefix.
func oracleTM(strict, rule bool) func(history.History) bool {
	return func(h history.History) bool {
		for i, e := range h {
			if e.Kind == history.KindResponse && !oracleSerializable(h[:i+1], strict) {
				return false
			}
		}
		return !rule || timestampRuleHolds(h)
	}
}

type sInfo struct {
	tx       *history.Tx
	startRes int // history index of the start response, -1 if none
	tryCInv  int // history index of the tryC invocation, -1 if none
}

func timestampRuleHolds(h history.History) bool {
	txs := history.Transactions(h)
	// Group by per-process sequence number t; within a group there is at
	// most one transaction per process.
	groups := make(map[int][]sInfo)
	for _, tx := range txs {
		info := sInfo{tx: tx, startRes: -1, tryCInv: -1}
		for _, op := range tx.Ops {
			switch op.Name {
			case history.TMStart:
				if op.Done {
					info.startRes = op.ResIndex
				}
			case history.TMTryC:
				info.tryCInv = op.InvIndex
			}
		}
		groups[tx.Seq] = append(groups[tx.Seq], info)
	}
	for _, members := range groups {
		if len(members) < 3 {
			continue
		}
		if !sGroupsOK(members) {
			return false
		}
	}
	return true
}

// sGroupsOK enumerates subsets of size >= 3 of one same-t group and checks
// the abort rule on each qualifying subset.
func sGroupsOK(members []sInfo) bool {
	n := len(members)
	for mask := uint(0); mask < 1<<uint(n); mask++ {
		var sel []sInfo
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				sel = append(sel, members[i])
			}
		}
		if len(sel) < 3 {
			continue
		}
		if !subsetQualifies(sel) {
			continue
		}
		for _, in := range sel {
			if in.tx.Status == history.TxCommitted {
				return false
			}
		}
	}
	return true
}

// subsetQualifies reports whether the Section 5.3 conditions hold for the
// subset: pairwise concurrent, and each member invokes tryC after at least
// two other members received their start response.
func subsetQualifies(sel []sInfo) bool {
	for i := range sel {
		for j := i + 1; j < len(sel); j++ {
			if !history.Concurrent(sel[i].tx, sel[j].tx) {
				return false
			}
		}
	}
	for i, in := range sel {
		if in.tryCInv < 0 {
			return false
		}
		others := 0
		for j, other := range sel {
			if j == i || other.startRes < 0 {
				continue
			}
			if other.startRes < in.tryCInv {
				others++
			}
		}
		if others < 2 {
			return false
		}
	}
	return true
}

// bruteSerializable is a naive reference implementation of the
// serialization search: plain recursive permutation enumeration with role
// choices, no memoization. Used as an oracle for the memoized DFS.
func bruteSerializable(recs []*txRecord, strict bool) bool {
	n := len(recs)
	placedMask := newBitset(n)
	var rec func(placed int, st varState) bool
	rec = func(placed int, st varState) bool {
		if placed == n {
			return true
		}
		for i, r := range recs {
			if placedMask.test(i) || !placedMask.containsAll(r.precede) {
				continue
			}
			for _, ro := range r.roles {
				switch ro {
				case roleCommitted:
					if !legal(r, st) {
						continue
					}
					placedMask.setBit(i)
					ok := rec(placed+1, applyWrites(r, st))
					placedMask.clearBit(i)
					if ok {
						return true
					}
				case roleAborted:
					if !strict && !legal(r, st) {
						continue
					}
					placedMask.setBit(i)
					ok := rec(placed+1, st)
					placedMask.clearBit(i)
					if ok {
						return true
					}
				}
			}
		}
		return false
	}
	return rec(0, varState{})
}

// randomTMValue draws a small int or, half the time, its decimal
// spelling: values that print alike but differ in type must never be
// confused by the serialization search.
func randomTMValue(r *rand.Rand) history.Value {
	v := r.Intn(3)
	if r.Intn(2) == 0 {
		return strconv.Itoa(v)
	}
	return v
}

// randomTMHistory generates a small well-formed TM history biased toward
// the histories a memoized serialization search can get wrong:
// transactions are short and mostly commit, most accesses go to one
// variable, a read mostly returns the transaction's own write or a value
// some committed transaction wrote to the variable (the latest one or an
// older one), and written values mix ints with their decimal spellings.
// Three histories in four run in rounds: a process that finished a
// transaction waits until every process has, so a round's transactions
// overlap and all precede the next round's. Two overlapping committed writers
// followed by a committed reader of their variable, whose legality
// depends on which writer the search places last, are then common
// (TestRandomTMHistoryShape); so are opaque histories, and violations
// still occur.
func randomTMHistory(r *rand.Rand, procs, events int) history.History {
	vars := []string{"x", "x", "x", "y"}
	committed := map[string][]history.Value{} // values committed to each variable
	rounds := r.Intn(4) != 0
	type st struct {
		inTx    bool
		pending string // pending op name, "" if none
		obj     string
		arg     history.Value
		writes  map[string]history.Value // this transaction's writes
		ops     int                      // reads and writes invoked
	}
	states := make([]st, procs+1)
	ran := make([]bool, procs+1) // finished a transaction in this round
	waiting := func(p int) bool {
		if !ran[p] {
			return false
		}
		for q := 1; q <= procs; q++ {
			if !ran[q] || states[q].inTx {
				return true
			}
		}
		clear(ran)
		return false
	}
	read := func(s *st) history.Value {
		if v, ok := s.writes[s.obj]; ok && r.Intn(8) != 0 {
			return v
		}
		vals := committed[s.obj]
		switch k := r.Intn(8); {
		case k < 4 && len(vals) > 0:
			return vals[len(vals)-1]
		case k < 7 && len(vals) > 0:
			return vals[r.Intn(len(vals))]
		case k < 7:
			return TMInitial
		}
		return randomTMValue(r)
	}
	var h history.History
	for len(h) < events {
		p := 1 + r.Intn(procs)
		s := &states[p]
		switch {
		case s.pending != "":
			var val history.Value = history.OK
			switch s.pending {
			case history.TMRead:
				if r.Intn(12) == 0 {
					val = history.Abort
				} else {
					val = read(s)
				}
			case history.TMWrite:
				s.writes[s.obj] = s.arg
			case history.TMTryC:
				val = history.Commit
				if r.Intn(6) == 0 {
					val = history.Abort
				}
			}
			h = append(h, history.ResponseObj(p, s.pending, s.obj, val))
			if val == history.Commit {
				for v, x := range s.writes {
					committed[v] = append(committed[v], x)
				}
			}
			if val == history.Abort || val == history.Commit {
				s.inTx, ran[p] = false, true
			}
			s.pending = ""
		case !s.inTx:
			if rounds && waiting(p) {
				continue
			}
			h = append(h, history.Invoke(p, history.TMStart, nil))
			s.pending, s.obj = history.TMStart, ""
			s.inTx, s.writes, s.ops = true, map[string]history.Value{}, 0
		default:
			// One or two reads and writes, then tryC.
			k := r.Intn(2)
			if s.ops == 2 || (s.ops == 1 && r.Intn(2) == 0) {
				k = 2
			}
			s.ops++
			switch k {
			case 0:
				s.obj = vars[r.Intn(len(vars))]
				h = append(h, history.InvokeObj(p, history.TMRead, s.obj, nil))
				s.pending = history.TMRead
			case 1:
				s.obj, s.arg = vars[r.Intn(len(vars))], randomTMValue(r)
				h = append(h, history.InvokeObj(p, history.TMWrite, s.obj, s.arg))
				s.pending = history.TMWrite
			default:
				h = append(h, history.Invoke(p, history.TMTryC, nil))
				s.pending, s.obj = history.TMTryC, ""
			}
		}
	}
	return h
}

// overlappingWritersThenReader reports whether h has two concurrent
// committed transactions writing one variable and a committed
// transaction, after both, that reads it: the shape whose search must
// try both writer orders, which a memo keyed by the %v rendering of the
// store (int 1 and string "1" alike) short-circuits.
func overlappingWritersThenReader(h history.History) bool {
	txs := history.Transactions(h)
	writes := func(tx *history.Tx, v string) bool {
		for _, w := range tx.Writes() {
			if w.Var == v {
				return true
			}
		}
		return false
	}
	for i, a := range txs {
		for _, b := range txs[i+1:] {
			if a.Status != history.TxCommitted || b.Status != history.TxCommitted || !history.Concurrent(a, b) {
				continue
			}
			for _, c := range txs {
				if c.Status != history.TxCommitted || !history.TxPrecedes(a, c) || !history.TxPrecedes(b, c) {
					continue
				}
				for _, rd := range c.Reads() {
					if writes(a, rd.Var) && writes(b, rd.Var) {
						return true
					}
				}
			}
		}
	}
	return false
}

// TestRandomTMHistoryShape: the histories TestQuickOpacityMatchesBruteForce
// draws must often hold two overlapping committed writers followed by a
// committed reader, and must mix opaque and non-opaque histories.
func TestRandomTMHistoryShape(t *testing.T) {
	const n = 2000
	shaped, opaque := 0, 0
	for seed := int64(0); seed < n; seed++ {
		r := rand.New(rand.NewSource(seed))
		h := randomTMHistory(r, 2, 24+r.Intn(24))
		if overlappingWritersThenReader(h) {
			shaped++
		}
		if oracleTM(false, false)(h) {
			opaque++
		}
	}
	t.Logf("of %d histories: %d with overlapping committed writers then a committed reader, %d opaque", n, shaped, opaque)
	if shaped < n/10 {
		t.Errorf("only %d of %d histories have overlapping committed writers followed by a committed reader, want at least %d", shaped, n, n/10)
	}
	if opaque < n/4 || opaque > n*3/4 {
		t.Errorf("%d of %d histories are opaque, want between a quarter and three quarters", opaque, n)
	}
}

func TestQuickOpacityMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomTMHistory(r, 2, 24+r.Intn(24))
		recs, ok := buildRecords(h)
		if !ok {
			return false
		}
		if serializable(recs, false) != bruteSerializable(recs, false) {
			t.Logf("opacity mismatch on %s", h)
			return false
		}
		if serializable(recs, true) != bruteSerializable(recs, true) {
			t.Logf("strict-serializability mismatch on %s", h)
			return false
		}
		return true
	}
	quickseed.Check(t, f, 400)
}

func TestQuickOpacityPrefixClosureOnRandomHistories(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomTMHistory(r, 2, 4+r.Intn(16))
		return PrefixClosed(Opacity{}, h) && PrefixClosed(StrictSerializability{}, h)
	}
	quickseed.Check(t, f, 150)
}

func TestQuickStrictSerializabilityWeakerThanOpacity(t *testing.T) {
	// Opacity implies strict serializability on every history.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomTMHistory(r, 2, 4+r.Intn(20))
		if Opaque(h) && !(StrictSerializability{}).Holds(h) {
			t.Logf("opaque but not strictly serializable: %s", h)
			return false
		}
		return true
	}
	quickseed.Check(t, f, 300)
}
