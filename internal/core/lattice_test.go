package core

import (
	"strings"
	"testing"

	"repro/internal/quickseed"
)

func TestLKPointOrder(t *testing.T) {
	tests := []struct {
		p, q     LKPoint
		stronger bool
	}{
		{LKPoint{1, 2}, LKPoint{1, 1}, true},
		{LKPoint{2, 2}, LKPoint{1, 2}, true},
		{LKPoint{1, 1}, LKPoint{1, 1}, true},
		{LKPoint{1, 3}, LKPoint{2, 2}, false}, // the paper's incomparable pair
		{LKPoint{2, 2}, LKPoint{1, 3}, false},
		{LKPoint{1, 1}, LKPoint{1, 2}, false},
	}
	for _, tt := range tests {
		if got := tt.p.StrongerEq(tt.q); got != tt.stronger {
			t.Errorf("%v.StrongerEq(%v) = %v, want %v", tt.p, tt.q, got, tt.stronger)
		}
	}
	if (LKPoint{1, 3}).Comparable(LKPoint{2, 2}) {
		t.Error("(1,3) and (2,2) must be incomparable")
	}
	if !(LKPoint{1, 2}).Comparable(LKPoint{2, 2}) {
		t.Error("(1,2) and (2,2) are comparable")
	}
}

func TestPlaneEnumeration(t *testing.T) {
	pts := Plane(3)
	// (1,1),(1,2),(2,2),(1,3),(2,3),(3,3)
	if len(pts) != 6 {
		t.Fatalf("Plane(3) has %d points, want 6", len(pts))
	}
	for _, p := range pts {
		if !p.Valid() {
			t.Errorf("invalid point %v", p)
		}
	}
}

func TestQuickOrderLaws(t *testing.T) {
	f := func(a, b, c uint8) bool {
		p := LKPoint{int(a%4) + 1, int(a%4) + 1 + int(b%3)}
		q := LKPoint{int(b%4) + 1, int(b%4) + 1 + int(c%3)}
		r := LKPoint{int(c%4) + 1, int(c%4) + 1 + int(a%3)}
		// Reflexivity.
		if !p.StrongerEq(p) {
			return false
		}
		// Antisymmetry.
		if p.StrongerEq(q) && q.StrongerEq(p) && p != q {
			return false
		}
		// Transitivity.
		if p.StrongerEq(q) && q.StrongerEq(r) && !p.StrongerEq(r) {
			return false
		}
		return true
	}
	quickseed.Check(t, f, 2000)
}

func TestMaximalMinimal(t *testing.T) {
	pc := &PlaneClassification{N: 3, Points: make(map[LKPoint]PointInfo)}
	// Whites: (1,1),(1,2); blacks: the rest. Minimal blacks should be
	// (1,3) and (2,2) — the Section 5.3 situation.
	for _, p := range Plane(3) {
		cls := Black
		if p == (LKPoint{1, 1}) || p == (LKPoint{1, 2}) {
			cls = White
		}
		pc.Points[p] = PointInfo{Point: p, Class: cls}
	}
	if err := pc.Monotone(); err != nil {
		t.Fatalf("classification should be monotone: %v", err)
	}
	mw := pc.MaximalWhites()
	if len(mw) != 1 || mw[0] != (LKPoint{1, 2}) {
		t.Errorf("MaximalWhites = %v, want [(1,2)]", mw)
	}
	mb := pc.MinimalBlacks()
	if len(mb) != 2 || mb[0] != (LKPoint{2, 2}) || mb[1] != (LKPoint{1, 3}) {
		t.Errorf("MinimalBlacks = %v, want [(2,2) (1,3)]", mb)
	}
	if _, ok := pc.WeakestNonImplementable(); ok {
		t.Error("two minimal blacks: no unique weakest")
	}
	if s, ok := pc.StrongestImplementable(); !ok || s != (LKPoint{1, 2}) {
		t.Errorf("StrongestImplementable = %v, %v", s, ok)
	}
}

func TestMonotoneDetectsInconsistency(t *testing.T) {
	pc := &PlaneClassification{N: 2, Points: make(map[LKPoint]PointInfo)}
	pc.Points[LKPoint{1, 1}] = PointInfo{Class: Black}
	pc.Points[LKPoint{1, 2}] = PointInfo{Class: White}
	pc.Points[LKPoint{2, 2}] = PointInfo{Class: White}
	if err := pc.Monotone(); err == nil {
		t.Error("white above black must be flagged")
	}
}

func TestRender(t *testing.T) {
	pc := &PlaneClassification{N: 2, SafetyName: "test", Points: map[LKPoint]PointInfo{
		{1, 1}: {Class: White},
		{1, 2}: {Class: Black},
		{2, 2}: {Class: Black},
	}}
	out := pc.Render()
	if !strings.Contains(out, "o") || !strings.Contains(out, "x") || !strings.Contains(out, ".") {
		t.Errorf("render missing symbols:\n%s", out)
	}
}
