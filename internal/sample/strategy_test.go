package sample

import (
	"slices"
	"testing"
)

// draws is what reset fixes for one PCT schedule: the initial
// priorities and the sorted change points.
func draws(s *strategy, seed int64) ([]int, []int) {
	s.reset(seed)
	return slices.Clone(s.prio), slices.Clone(s.change)
}

// TestStrategySeedsDoNotAlias: the whole 64-bit seed reaches the
// generator. math/rand's source folded seeds mod 2³¹−1, so master seeds
// that far apart ran identical schedules; here a collision of 8
// priorities and 3 change points in 1..1000 has chance near 10⁻¹³ per
// pair. Re-seeding with an earlier seed re-derives its schedule.
func TestStrategySeedsDoNotAlias(t *testing.T) {
	s := newStrategy(&Config{Procs: 8, Steps: 1000, ChangePoints: 3})
	const fold = 1<<31 - 1
	for seed := int64(1); seed <= 100; seed++ {
		prio, change := draws(s, seed)
		aliasPrio, aliasChange := draws(s, seed+fold)
		if slices.Equal(prio, aliasPrio) && slices.Equal(change, aliasChange) {
			t.Fatalf("seeds %d and %d drew the same schedule: priorities %v, change points %v",
				seed, seed+fold, prio, change)
		}
		againPrio, againChange := draws(s, seed)
		if !slices.Equal(prio, againPrio) || !slices.Equal(change, againChange) {
			t.Fatalf("seed %d drew %v %v, then %v %v", seed, prio, change, againPrio, againChange)
		}
	}
}

// chiSquare is Pearson's statistic of the observed counts against a
// uniform expectation.
func chiSquare(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	want := float64(total) / float64(len(counts))
	var x float64
	for _, c := range counts {
		d := float64(c) - want
		x += d * d / want
	}
	return x
}

// TestStrategyUniformOverConsecutiveSeeds: the sampler seeds schedule i
// with Seed+i, so consecutive seeds must start independent streams.
// Over 60,000 of them, which process gets the top priority and where
// the change points fall must both pass a chi-square test of
// uniformity at p = 10⁻⁶.
func TestStrategyUniformOverConsecutiveSeeds(t *testing.T) {
	const (
		procs, steps, d = 4, 10, 3
		seeds           = 60000
		// Upper 10⁻⁶ quantiles of the chi-square distribution with
		// procs−1 = 3 and steps−1 = 9 degrees of freedom.
		critTop, critChange = 30.665, 44.811
	)
	s := newStrategy(&Config{Procs: procs, Steps: steps, ChangePoints: d})
	top := make([]int, procs)
	change := make([]int, steps)
	for seed := int64(1); seed <= seeds; seed++ {
		s.reset(seed)
		for p := 1; p <= procs; p++ {
			if s.prio[p] == d+procs {
				top[p-1]++
			}
		}
		for _, c := range s.change {
			change[c-1]++
		}
	}
	if x := chiSquare(top); x > critTop {
		t.Errorf("top-priority process counts %v: chi-square %.2f > %.3f", top, x, critTop)
	}
	if x := chiSquare(change); x > critChange {
		t.Errorf("change-point position counts %v: chi-square %.2f > %.3f", change, x, critChange)
	}
}

// BenchmarkStrategyReset is the per-schedule seeding cost: one reset of
// the sampling benchmark's PCT strategy (3 processes, depth 10, d=3).
func BenchmarkStrategyReset(b *testing.B) {
	s := newStrategy(&Config{Procs: 3, Steps: 10, ChangePoints: 3})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.reset(int64(i))
	}
}
