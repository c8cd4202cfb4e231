package safety

import (
	"fmt"

	"repro/internal/history"
)

// maxOracleOps bounds the oracle's history length: it gives each
// operation a bit of a uint64 mask by its position in the history.
const maxOracleOps = 63

// oracleLinearizable is the independent oracle of the linearizability
// monitor: the memoized Wing–Gong search (Wing & Gong, JPDC 1993), a DFS
// over (linearized set, specification state) that solves the whole
// history at once. It reports whether the well-formed history h is
// linearizable with respect to spec, or with strict set strictly
// linearizable: an operation pending when its process crashes then has
// its interval end at the crash event, so it cannot be linearized once
// any operation invoked after that crash has been (and, being
// response-less, it may match any transition or be omitted). It panics
// on histories of more than maxOracleOps operations.
func oracleLinearizable(spec SeqSpec, h history.History, strict bool) bool {
	ops := h.Operations()
	if len(ops) > maxOracleOps {
		panic(fmt.Sprintf("oracle: %d operations, more than %d", len(ops), maxOracleOps))
	}
	// crashedAt[i] is the history index of the crash that closed pending
	// operation i, or -1. Reconstructed with the same per-process pairing
	// walk as Operations: a later invocation of a recovered process opens
	// a fresh operation and leaves the closed one behind.
	crashedAt := make([]int, len(ops))
	for i := range crashedAt {
		crashedAt[i] = -1
	}
	if strict {
		open := make(map[int]int) // proc -> index into ops of its open operation
		k := 0
		for i, e := range h {
			switch e.Kind {
			case history.KindInvoke:
				open[e.Proc] = k
				k++
			case history.KindResponse:
				delete(open, e.Proc)
			case history.KindCrash:
				if j, ok := open[e.Proc]; ok {
					crashedAt[j] = i
					delete(open, e.Proc)
				}
			}
		}
	}

	// mustPrecede[i] is the mask of operations that must be linearized
	// before operation i (those completing before i's invocation).
	mustPrecede := make([]uint64, len(ops))
	// barredBy[i] is the mask of operations invoked after operation i's
	// crash: once any of them is linearized, i may no longer be.
	barredBy := make([]uint64, len(ops))
	completedMask := uint64(0)
	for i := range ops {
		if ops[i].Done {
			completedMask |= 1 << uint(i)
		}
		for j := range ops {
			if i == j {
				continue
			}
			if history.PrecedesRealTime(ops[j], ops[i]) {
				mustPrecede[i] |= 1 << uint(j)
			}
			if crashedAt[i] >= 0 && ops[j].InvIndex > crashedAt[i] {
				barredBy[i] |= 1 << uint(j)
			}
		}
	}

	type key struct {
		mask  uint64
		state State
	}
	memo := make(map[key]bool)

	var dfs func(mask uint64, st State) bool
	dfs = func(mask uint64, st State) bool {
		if mask&completedMask == completedMask {
			return true
		}
		k := key{mask, st}
		if v, ok := memo[k]; ok {
			return v
		}
		res := false
		for i := range ops {
			bit := uint64(1) << uint(i)
			if mask&bit != 0 || mask&mustPrecede[i] != mustPrecede[i] || mask&barredBy[i] != 0 {
				continue
			}
			op := ops[i]
			for _, tr := range spec.Apply(st, op.Proc, op.Name, op.Obj, op.Arg) {
				if op.Done && tr.Resp != op.Val {
					continue
				}
				if dfs(mask|bit, tr.Next) {
					res = true
					break
				}
			}
			if res {
				break
			}
		}
		memo[k] = res
		return res
	}
	return dfs(0, spec.Init())
}
