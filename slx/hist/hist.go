// Package hist is the public facade over the repository's history
// formalism (Section 2 of Bushkov & Guerraoui, PODC 2015): events,
// histories, per-process projection, prefixes, equivalence and the
// transactional view. All types are aliases of the implementation in
// internal/history, so values flow freely between the public API and the
// engine with no conversion.
package hist

import "repro/internal/history"

// Kind distinguishes invocation, response and crash events.
type Kind = history.Kind

// Event kinds.
const (
	KindInvoke   = history.KindInvoke
	KindResponse = history.KindResponse
	KindCrash    = history.KindCrash
)

// Value is a datum carried by an invocation or response; it must be
// comparable with ==.
type Value = history.Value

// Distinguished transactional-memory response values (ok / A / C).
const (
	OK     = history.OK
	Abort  = history.Abort
	Commit = history.Commit
)

// TM operation names (start, read, write, tryC).
const (
	TMStart = history.TMStart
	TMRead  = history.TMRead
	TMWrite = history.TMWrite
	TMTryC  = history.TMTryC
)

// Event is a single external action of an implementation automaton.
type Event = history.Event

// History is a finite sequence of external events.
type History = history.History

// Op is a matched invocation/response pair within a history.
type Op = history.Op

// Tx is one transaction extracted from a TM history.
type Tx = history.Tx

// TxStatus is the completion status of a transaction.
type TxStatus = history.TxStatus

// Transaction statuses.
const (
	TxLive      = history.TxLive
	TxCommitted = history.TxCommitted
	TxAborted   = history.TxAborted
)

// VarVal is a variable/value pair observed by a transaction.
type VarVal = history.VarVal

// Invoke constructs an invocation event.
func Invoke(proc int, op string, arg Value) Event { return history.Invoke(proc, op, arg) }

// InvokeObj constructs an invocation event addressing an object.
func InvokeObj(proc int, op, obj string, arg Value) Event {
	return history.InvokeObj(proc, op, obj, arg)
}

// Response constructs a response event.
func Response(proc int, op string, val Value) Event { return history.Response(proc, op, val) }

// ResponseObj constructs a response event addressing an object.
func ResponseObj(proc int, op, obj string, val Value) Event {
	return history.ResponseObj(proc, op, obj, val)
}

// Crash constructs a crash_i event.
func Crash(proc int) Event { return history.Crash(proc) }

// Parse parses the compact textual history notation produced by
// History.String (e.g. "propose_1(0) · ret_1[propose]=0 · recover_2").
func Parse(s string) (History, error) { return history.Parse(s) }

// MustParse is Parse panicking on error; for tests and fixtures.
func MustParse(s string) History { return history.MustParse(s) }

// Transactions extracts the per-process transactions of a TM history.
func Transactions(h History) []*Tx { return history.Transactions(h) }

// Concurrent reports whether two transactions overlap in real time.
func Concurrent(a, b *Tx) bool { return history.Concurrent(a, b) }

// TxPrecedes reports whether a completes before b starts.
func TxPrecedes(a, b *Tx) bool { return history.TxPrecedes(a, b) }

// PrecedesRealTime reports whether operation a responds before b invokes.
func PrecedesRealTime(a, b Op) bool { return history.PrecedesRealTime(a, b) }
