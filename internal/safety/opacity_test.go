package safety

import (
	"testing"

	"repro/internal/history"
)

// tmEvents provides shorthand constructors for TM histories.
func tmStart(p int) []history.Event {
	return []history.Event{
		history.Invoke(p, history.TMStart, nil),
		history.Response(p, history.TMStart, history.OK),
	}
}

func tmRead(p int, v string, val history.Value) []history.Event {
	return []history.Event{
		history.InvokeObj(p, history.TMRead, v, nil),
		history.ResponseObj(p, history.TMRead, v, val),
	}
}

func tmWrite(p int, v string, val history.Value) []history.Event {
	return []history.Event{
		history.InvokeObj(p, history.TMWrite, v, val),
		history.ResponseObj(p, history.TMWrite, v, history.OK),
	}
}

func tmCommit(p int) []history.Event {
	return []history.Event{
		history.Invoke(p, history.TMTryC, nil),
		history.Response(p, history.TMTryC, history.Commit),
	}
}

func tmAbort(p int) []history.Event {
	return []history.Event{
		history.Invoke(p, history.TMTryC, nil),
		history.Response(p, history.TMTryC, history.Abort),
	}
}

func cat(parts ...[]history.Event) history.History {
	var h history.History
	for _, p := range parts {
		h = append(h, p...)
	}
	return h
}

func TestOpaqueSequentialHistories(t *testing.T) {
	tests := []struct {
		name string
		h    history.History
		want bool
	}{
		{"empty", history.History{}, true},
		{"single committed tx", cat(
			tmStart(1), tmRead(1, "x", 0), tmWrite(1, "x", 1), tmCommit(1),
		), true},
		{"sequential chain sees writes", cat(
			tmStart(1), tmWrite(1, "x", 1), tmCommit(1),
			tmStart(2), tmRead(2, "x", 1), tmCommit(2),
		), true},
		{"sequential chain misses write", cat(
			tmStart(1), tmWrite(1, "x", 1), tmCommit(1),
			tmStart(2), tmRead(2, "x", 0), tmCommit(2),
		), false},
		{"aborted tx invisible", cat(
			tmStart(1), tmWrite(1, "x", 1), tmAbort(1),
			tmStart(2), tmRead(2, "x", 0), tmCommit(2),
		), true},
		{"aborted writes must not leak", cat(
			tmStart(1), tmWrite(1, "x", 1), tmAbort(1),
			tmStart(2), tmRead(2, "x", 1), tmCommit(2),
		), false},
		{"read own write", cat(
			tmStart(1), tmWrite(1, "x", 5), tmRead(1, "x", 5), tmCommit(1),
		), true},
		{"read own write wrong", cat(
			tmStart(1), tmWrite(1, "x", 5), tmRead(1, "x", 0), tmCommit(1),
		), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Opaque(tt.h); got != tt.want {
				t.Errorf("Opaque = %v, want %v for %s", got, tt.want, tt.h)
			}
		})
	}
}

func TestOpaqueConcurrent(t *testing.T) {
	t.Run("aborted tx sees inconsistent snapshot", func(t *testing.T) {
		// T2 reads x=0, then T1 commits x=1,y=1, then T2 reads y=1: no
		// serialization point gives T2 the view (x=0, y=1). Opacity fails
		// even though T2 aborts; strict serializability holds.
		h := cat(
			tmStart(2), tmRead(2, "x", 0),
			tmStart(1), tmWrite(1, "x", 1), tmWrite(1, "y", 1), tmCommit(1),
			tmRead(2, "y", 1), tmAbort(2),
		)
		if Opaque(h) {
			t.Error("inconsistent aborted read must violate opacity")
		}
		if !(StrictSerializability{}).Holds(h) {
			t.Error("strict serializability ignores aborted transactions")
		}
	})
	t.Run("lost update", func(t *testing.T) {
		h := cat(
			tmStart(1), tmStart(2),
			tmRead(1, "x", 0), tmRead(2, "x", 0),
			tmWrite(1, "x", 1), tmWrite(2, "x", 2),
			tmCommit(1), tmCommit(2),
		)
		if Opaque(h) {
			t.Error("lost update must violate opacity")
		}
		if (StrictSerializability{}).Holds(h) {
			t.Error("lost update must violate strict serializability too")
		}
	})
	t.Run("real-time order violation", func(t *testing.T) {
		h := cat(
			tmStart(1), tmWrite(1, "x", 1), tmCommit(1),
			tmStart(2), tmRead(2, "x", 0), tmCommit(2),
		)
		if Opaque(h) {
			t.Error("T2 follows T1 in real time and must see its write")
		}
	})
	t.Run("concurrent reader may serialize before writer", func(t *testing.T) {
		h := cat(
			tmStart(1), tmStart(2),
			tmRead(2, "x", 0),
			tmWrite(1, "x", 1), tmCommit(1),
			tmCommit(2),
		)
		if !Opaque(h) {
			t.Error("T2 can serialize before T1")
		}
	})
	t.Run("pending tryC may commit", func(t *testing.T) {
		h := cat(
			tmStart(1), tmWrite(1, "x", 1),
			[]history.Event{history.Invoke(1, history.TMTryC, nil)},
			tmStart(2), tmRead(2, "x", 1), tmCommit(2),
		)
		if !Opaque(h) {
			t.Error("completion may commit T1, making T2's read legal")
		}
	})
	t.Run("live tx without tryC request must abort in completion", func(t *testing.T) {
		// T1 wrote x=1 but never invoked tryC; T2 must not see the write.
		h := cat(
			tmStart(1), tmWrite(1, "x", 1),
			tmStart(2), tmRead(2, "x", 1), tmCommit(2),
		)
		if Opaque(h) {
			t.Error("completion aborts T1 (no commit request), so T2's read is illegal")
		}
	})
	t.Run("write skew is serializable", func(t *testing.T) {
		// Classic write skew: T1 reads x writes y, T2 reads y writes x;
		// with both reading initial values one serialization order exists
		// only if reads stay consistent: T1: r(x)=0 w(y)=1; T2: r(y)=0
		// w(x)=1. Order T1,T2: T2 reads y=... T2 read y=0 but T1 wrote
		// y=1 → illegal; order T2,T1: T1 reads x=0 but T2 wrote x=1 →
		// illegal. Hence not opaque.
		h := cat(
			tmStart(1), tmStart(2),
			tmRead(1, "x", 0), tmRead(2, "y", 0),
			tmWrite(1, "y", 1), tmWrite(2, "x", 1),
			tmCommit(1), tmCommit(2),
		)
		if Opaque(h) {
			t.Error("write skew with these reads is not serializable")
		}
	})
}

func TestOpacityPrefixClosed(t *testing.T) {
	bad := cat(
		tmStart(2), tmRead(2, "x", 0),
		tmStart(1), tmWrite(1, "x", 1), tmWrite(1, "y", 1), tmCommit(1),
		tmRead(2, "y", 1), tmAbort(2),
	)
	if !PrefixClosed(Opacity{}, bad) {
		t.Error("opacity checker must be prefix-closed along the violating history")
	}
	good := cat(
		tmStart(1), tmWrite(1, "x", 1), tmCommit(1),
		tmStart(2), tmRead(2, "x", 1), tmCommit(2),
	)
	if !PrefixClosed(Opacity{}, good) {
		t.Error("opacity checker must be prefix-closed along the good history")
	}
}

// sameSpelling is a value whose fmt rendering hides its content: every
// instance prints as "v", so only a content encoding tells two apart.
type sameSpelling struct{ n int }

func (sameSpelling) String() string { return "v" }

// TestOpacityDistinguishesValueTypes: T1 and T2 overlap and commit
// writes of two different values to x, and T3 then reads T1's value,
// which only the order T2·T1·T3 explains. The memoized search must key
// its stores by content: a memo keyed by the %v rendering reuses the
// refutation of T1·T2 (x holding T2's value) for T2·T1 (x holding
// T1's), because the int 1 and the string "1" render alike, and so do
// two values whose String methods agree (the canonical encoder refuses
// those, so their states must go unmemoized).
func TestOpacityDistinguishesValueTypes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		v1, v2 history.Value
	}{
		{"int-vs-string", 1, "1"},
		{"stringer", sameSpelling{1}, sameSpelling{2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := cat(
				tmStart(1), tmStart(2), tmWrite(1, "x", tc.v1), tmWrite(2, "x", tc.v2),
				tmCommit(1), tmCommit(2),
				tmStart(3), tmRead(3, "x", tc.v1), tmCommit(3),
			)
			recs, ok := buildRecords(h)
			if !ok || !bruteSerializable(recs, false) || !bruteSerializable(recs, true) {
				t.Fatal("oracle: T2·T1·T3 serializes the history")
			}
			if !Opaque(h) {
				t.Error("Opaque rejected the history")
			}
			if !(StrictSerializability{}).Holds(h) {
				t.Error("StrictSerializability rejected the history")
			}
			for _, m := range []*TMMonitor{NewOpacityMonitor(), NewStrictSerializabilityMonitor()} {
				for i, e := range h {
					if !m.Step(e) {
						t.Errorf("monitor (strict=%v) rejected event %d: %v", m.strict, i, e)
						break
					}
				}
			}
		})
	}
}

func TestOpaqueFailedOperationsUnconstrained(t *testing.T) {
	// Reads and writes that return A impose no constraints.
	h := cat(
		tmStart(1),
		[]history.Event{
			history.InvokeObj(1, history.TMRead, "x", nil),
			history.ResponseObj(1, history.TMRead, "x", history.Abort),
		},
	)
	if !Opaque(h) {
		t.Error("an aborted read imposes no consistency constraint")
	}
}

func TestStrictSerializabilityRealTime(t *testing.T) {
	// Even strict serializability must respect real-time order of
	// committed transactions.
	h := cat(
		tmStart(1), tmWrite(1, "x", 1), tmCommit(1),
		tmStart(2), tmRead(2, "x", 0), tmCommit(2),
	)
	if (StrictSerializability{}).Holds(h) {
		t.Error("committed T2 follows T1 in real time and must see x=1")
	}
}

func TestPropertyS(t *testing.T) {
	// Build the Section 5.3 scenario: three processes run their t-th
	// transactions concurrently; each invokes tryC after the other two
	// received start responses.
	qualifying := func(third []history.Event) history.History {
		return cat(
			tmStart(1), tmStart(2), tmStart(3), // all start responses in
			tmAbort(1), tmAbort(2), // two abort
			third, // outcome of the third
		)
	}
	t.Run("commit violates the rule", func(t *testing.T) {
		h := qualifying(tmCommit(3))
		if timestampRuleHolds(h) {
			t.Error("a commit in a qualifying group must violate the rule")
		}
		if (PropertyS{}).Holds(h) {
			t.Error("S includes the rule")
		}
		// Opacity alone is fine with this history.
		if !Opaque(h) {
			t.Error("the history is opaque; only the extra rule fails")
		}
	})
	t.Run("all aborted satisfies the rule", func(t *testing.T) {
		h := qualifying(tmAbort(3))
		if !(PropertyS{}).Holds(h) {
			t.Error("all-aborted qualifying group satisfies S")
		}
	})
	t.Run("two transactions only", func(t *testing.T) {
		h := cat(
			tmStart(1), tmStart(2),
			tmAbort(1), tmCommit(2),
		)
		if !timestampRuleHolds(h) || !(PropertyS{}).Holds(h) {
			t.Error("the rule needs at least three transactions")
		}
	})
	t.Run("tryC before others start", func(t *testing.T) {
		// p3 commits before p1/p2 even start: the timing condition fails,
		// so the commit is allowed.
		h := cat(
			tmStart(3), tmCommit(3),
			tmStart(1), tmStart(2),
			tmAbort(1), tmAbort(2),
		)
		if !timestampRuleHolds(h) || !(PropertyS{}).Holds(h) {
			t.Error("non-concurrent / early-commit group is exempt")
		}
	})
	t.Run("different sequence numbers exempt", func(t *testing.T) {
		// p3's committing transaction is its second one; the others are
		// first ones, so no common t exists.
		h := cat(
			tmStart(3), tmAbort(3),
			tmStart(1), tmStart(2), tmStart(3),
			tmAbort(1), tmAbort(2), tmCommit(3),
		)
		if !timestampRuleHolds(h) || !(PropertyS{}).Holds(h) {
			t.Error("groups require a common per-process sequence number")
		}
	})
	t.Run("prefix closed", func(t *testing.T) {
		h := qualifying(tmCommit(3))
		if !PrefixClosed(PropertyS{}, h) {
			t.Error("S must be prefix-closed")
		}
	})
}
