package safety

import "repro/internal/history"

// PropertyS is the Section 5.3 safety property: opacity plus the rule that
// for any three or more pairwise-concurrent transactions T1,T2,T3,...
// executed by distinct processes, all being the t-th transaction of their
// process for a common t, if each Ti invokes tryC after at least two other
// transactions of the group received a response for start, then none of
// them may commit ("such transactions should be aborted").
//
// The commit of any member of such a group is the irrevocable bad event,
// which makes the rule prefix-closed; together with opacity the property
// satisfies Definition 3.1.
type PropertyS struct{}

// Name implements Property.
func (PropertyS) Name() string { return "S(opacity+timestamp-abort)" }

// Holds implements Property: the BatchAdapter over the property S
// monitor.
func (p PropertyS) Holds(h history.History) bool {
	return BatchAdapter{PropName: p.Name(), SpawnFn: p.Spawn}.Holds(h)
}

// ruleHolds re-checks the timestamp rule on the same-t group of process
// proc's current transaction, the only group a tryC event of proc can
// change. A group holds at most one transaction per process, so with
// fewer than three processes no group can qualify.
func (m *TMMonitor) ruleHolds(proc int) bool {
	p := m.proc(proc)
	if len(m.procs) < 3 || p == nil || p.cur < 0 {
		return true
	}
	seq := m.recs[p.cur].seq
	var buf [8]int
	members := buf[:0]
	for k, r := range m.recs {
		if r.seq == seq {
			members = append(members, k)
		}
	}
	return len(members) < 3 || groupHolds(m.recs, members)
}

// groupHolds enumerates the subsets of size >= 3 of one same-t group
// (indices into recs) and checks the abort rule on each qualifying
// subset.
func groupHolds(recs []*txRecord, members []int) bool {
	var buf [8]int
	for mask := uint(0); mask < 1<<uint(len(members)); mask++ {
		sel := buf[:0]
		for i, k := range members {
			if mask&(1<<uint(i)) != 0 {
				sel = append(sel, k)
			}
		}
		if len(sel) < 3 || !qualifies(recs, sel) {
			continue
		}
		for _, k := range sel {
			if recs[k].status == history.TxCommitted {
				return false
			}
		}
	}
	return true
}

// qualifies reports whether the Section 5.3 conditions hold for the
// subset sel: pairwise concurrent (neither completed before the other
// started), and each member invokes tryC after at least two other
// members received their start response.
func qualifies(recs []*txRecord, sel []int) bool {
	for i, a := range sel {
		for _, b := range sel[i+1:] {
			if recs[a].precede.has(b) || recs[b].precede.has(a) {
				return false
			}
		}
	}
	for _, a := range sel {
		tryCInv := recs[a].tryCInv
		if tryCInv < 0 {
			return false
		}
		others := 0
		for _, b := range sel {
			if b != a && recs[b].startRes >= 0 && recs[b].startRes < tryCInv {
				others++
			}
		}
		if others < 2 {
			return false
		}
	}
	return true
}
