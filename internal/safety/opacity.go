package safety

import (
	"encoding/binary"
	"sort"

	"repro/internal/history"
)

// TMInitial is the initial value of every transactional variable, matching
// Algorithm 1's initialization C = (1,(0,0,...)).
const TMInitial = 0

// role is how a transaction is placed in a candidate serialization.
type role int

const (
	roleCommitted role = iota + 1
	roleAborted
)

// txRecord is what the serialization search knows about one
// transaction; TMMonitor keeps one per transaction and updates it per
// event.
type txRecord struct {
	// steps is the program-order sequence of successful reads and writes.
	steps []txStep
	// roles are the allowed placement roles, derived from the completion
	// rules of opacity (Section 4.1): committed transactions must commit,
	// aborted must abort, live with a pending tryC may do either, live
	// without a pending tryC abort (rolesOf).
	roles []role
	// precede is the set of transactions that must be serialized before
	// this one (real-time order): those completed when it started.
	precede bitset

	status      history.TxStatus
	pendingTryC bool // the last invocation is a tryC without a response
	// seq is the transaction's index within its process, from 1 (the
	// paper's t); startRes and tryCInv are the history indices of its
	// start response and of its last tryC invocation, -1 if none. They
	// are the timestamp rule's inputs.
	seq, startRes, tryCInv int
}

// The role sets a transaction can have; shared, never written.
var (
	commitOnly    = []role{roleCommitted}
	abortOnly     = []role{roleAborted}
	commitOrAbort = []role{roleCommitted, roleAborted}
)

// rolesOf returns the allowed roles of a transaction with the given
// status and pending-tryC flag.
func rolesOf(status history.TxStatus, pendingTryC bool) []role {
	switch {
	case status == history.TxCommitted:
		return commitOnly
	case status == history.TxLive && pendingTryC:
		return commitOrAbort
	}
	return abortOnly
}

// bitset is a dynamic bit mask over transaction indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) test(i int) bool { return b[i/64]&(1<<uint(i%64)) != 0 }

// has is test for a set that may be shorter than i: a transaction's
// predecessor set holds only transactions that started before it.
func (b bitset) has(i int) bool { return i/64 < len(b) && b.test(i) }

// withBit returns a copy of b with bit i set.
func (b bitset) withBit(i int) bitset {
	out := make(bitset, len(b))
	copy(out, b)
	out[i/64] |= 1 << uint(i%64)
	return out
}

func (b bitset) setBit(i int) { b[i/64] |= 1 << uint(i%64) }

func (b bitset) clearBit(i int) { b[i/64] &^= 1 << uint(i%64) }

// containsAll reports whether every bit of other is set in b.
func (b bitset) containsAll(other bitset) bool {
	for w := range other {
		if other[w]&^b[w] != 0 {
			return false
		}
	}
	return true
}

func (b bitset) key() string {
	buf := make([]byte, 0, len(b)*8)
	for _, w := range b {
		for s := 0; s < 64; s += 8 {
			buf = append(buf, byte(w>>uint(s)))
		}
	}
	return string(buf)
}

type txStep struct {
	isRead bool
	v      string
	val    history.Value // value read, or value written
}

// maxOpacityTxs is a sanity cap on the number of transactions the memoized
// search handles (the dynamic bitset supports arbitrary counts; the cap
// guards against accidental quadratic blowups on absurd inputs): a
// response after more transactions started fails the history.
const maxOpacityTxs = 4096

// varState is the committed store during serialization, encoded canonically
// for memoization.
type varState map[string]history.Value

// key encodes the store for the memo: in variable order, each name
// length-prefixed and its value in history.AppendCanonical's injective
// encoding, so stores that differ only in a value's type (int 1 and
// string "1") get different keys. ok=false when the encoder refuses a
// value; such a state must not be memoized.
func (s varState) key() (string, bool) {
	if len(s) == 0 {
		return "", true
	}
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf []byte
	for _, k := range keys {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		var ok bool
		if buf, ok = history.AppendCanonical(buf, s[k]); !ok {
			return "", false
		}
	}
	return string(buf), true
}

// legal reports whether the transaction's reads are consistent with the
// committed store st at its serialization point (reading its own earlier
// writes first, then st, then the initial value).
func legal(r *txRecord, st varState) bool {
	local := make(map[string]history.Value)
	for _, step := range r.steps {
		if step.isRead {
			want, ok := local[step.v]
			if !ok {
				want, ok = st[step.v]
				if !ok {
					want = TMInitial
				}
			}
			if step.val != want {
				return false
			}
			continue
		}
		local[step.v] = step.val
	}
	return true
}

// applyWrites returns st extended with the transaction's writes (copy on
// write).
func applyWrites(r *txRecord, st varState) varState {
	wrote := false
	for _, step := range r.steps {
		if !step.isRead {
			wrote = true
			break
		}
	}
	if !wrote {
		return st
	}
	out := make(varState, len(st)+2)
	for k, v := range st {
		out[k] = v
	}
	for _, step := range r.steps {
		if !step.isRead {
			out[step.v] = step.val
		}
	}
	return out
}

// serializable runs the memoized DFS: is there an order of all transactions
// (with allowed roles) respecting real-time order in which every placed
// transaction's reads are legal? When strict is true, aborted transactions
// impose no read constraints (strict serializability); otherwise even
// aborted transactions must observe a consistent state (opacity).
func serializable(recs []*txRecord, strict bool) bool {
	n := len(recs)

	type key struct {
		mask  string
		state string
	}
	memo := make(map[key]bool)

	var dfs func(mask bitset, placed int, st varState) bool
	dfs = func(mask bitset, placed int, st varState) bool {
		if placed == n {
			return true
		}
		sk, memoize := st.key()
		k := key{mask.key(), sk}
		if v, ok := memo[k]; memoize && ok {
			return v
		}
		res := false
	candidates:
		for i, r := range recs {
			if mask.test(i) || !mask.containsAll(r.precede) {
				continue
			}
			for _, ro := range r.roles {
				switch ro {
				case roleCommitted:
					if !legal(r, st) {
						continue
					}
					if dfs(mask.withBit(i), placed+1, applyWrites(r, st)) {
						res = true
						break candidates
					}
				case roleAborted:
					if !strict && !legal(r, st) {
						continue
					}
					if dfs(mask.withBit(i), placed+1, st) {
						res = true
						break candidates
					}
				}
			}
		}
		if memoize {
			memo[k] = res
		}
		return res
	}
	return dfs(newBitset(n), 0, varState{})
}

// Opaque reports whether h ensures opacity: every prefix ending in a
// response admits a completion and an equivalent legal sequential history
// preserving real-time order. It replays h through the opacity monitor.
// A prefix ending in an invocation is not judged on its own: in a
// well-formed history an invocation cannot invalidate opacity, since a
// new or extended live transaction completes as aborted with no
// additional successful reads, and real-time constraints only shrink.
func Opaque(h history.History) bool { return Opacity{}.Holds(h) }

// Opacity is the opacity safety property as a Property value.
type Opacity struct{}

// Name implements Property.
func (Opacity) Name() string { return "opacity" }

// Holds implements Property: the BatchAdapter over the opacity monitor.
func (p Opacity) Holds(h history.History) bool {
	return BatchAdapter{PropName: p.Name(), SpawnFn: p.Spawn}.Holds(h)
}

// StrictSerializability requires the committed transactions (plus possibly
// some commit-pending ones) to form a legal sequential history preserving
// real-time order; aborted transactions are invisible and unconstrained.
type StrictSerializability struct{}

// Name implements Property.
func (StrictSerializability) Name() string { return "strict-serializability" }

// Holds implements Property: the BatchAdapter over the strict
// serializability monitor.
func (p StrictSerializability) Holds(h history.History) bool {
	return BatchAdapter{PropName: p.Name(), SpawnFn: p.Spawn}.Holds(h)
}
