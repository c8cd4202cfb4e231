package sim

// Recoverable is the opt-in crash–recovery hook: an Object implementing
// it splits its state into a durable part that survives crashes and a
// volatile part that does not, and provides the recovery routine a
// recovering process runs before rejoining its workload.
//
// CrashVolatile is invoked at every crash decision, whether or not the
// run has a recovery budget: it must wipe (reset to their initial or
// empty values) exactly the object's volatile components, leaving the
// durable ones untouched. It runs between granted windows and must not
// call Proc hooks.
//
// RecoverFrame is invoked at every recover decision: it returns the
// recovery routine as a continuation Frame, stepped under the
// recovering process's granted windows exactly like an operation frame
// (each Step is one base-object access plus trailing local code),
// except that its completion records no response event — recovery is
// not an operation. A nil frame means recovery needs no shared-memory
// work: the process re-enters its workload immediately. The frame
// learns the recovering process from the *Proc passed to Step.
//
// Objects not implementing the hook still support recover decisions:
// all their state is treated as durable and recovery runs no routine —
// the classic crash-restart model where only the process's volatile
// continuation (its in-flight operation and its chosen-but-uninvoked
// next invocation) is lost.
//
// Composition contract: volatile state wiped by CrashVolatile and any
// state the recovery routine mutates must still be covered by the usual
// hooks — Snapshot/Restore (sessions rewind across crash and recover
// decisions), Fingerprint (two configurations differing only in
// volatile state must digest differently), and Footprints (recovery
// steps declare their accesses like any other step). An implementation
// built from internal/base gets this by construction: its CrashVolatile
// is the one line recv.Wipe(), which reverts durable registers' caches
// to their flushed halves and the memory's local cells (process-local
// state, volatile by definition) to their initial values, and the
// memory's Snapshot, Restore and Fold cover those same cells.
type Recoverable interface {
	Object
	CrashVolatile()
	RecoverFrame() Frame
}
