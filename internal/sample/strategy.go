package sample

import (
	"math/rand/v2"
	"sort"

	"repro/internal/sim"
)

// strategy draws one seeded schedule's decisions. All randomness of a
// schedule comes from its seed in a fixed consultation order — setup
// first (priorities, change points, crash points), then one draw per
// decision that needs one — so a seed alone reproduces the schedule,
// on either execution engine. A strategy is reused across schedules via
// reset (workers keep one each); it is not safe for concurrent use.
type strategy struct {
	procs      int
	steps      int
	d          int
	crashes    int
	recoveries int
	walk       bool

	src *rand.PCG
	rng *rand.Rand

	// prio[p] is process p's current priority (higher steps first;
	// index 0 unused). Initial priorities are a random permutation of
	// d+1..d+procs; the j-th change point (0-based) demotes the most
	// recent mover to d-j, below every initial priority and every
	// earlier demotion.
	prio []int
	// change holds the PCT change points: sorted granted-step counts
	// after which the most recent mover is demoted. Sampled uniformly
	// from 1..steps with replacement; coincident points collapse onto
	// the same mover (the later demotion wins), which only wastes the
	// duplicate, exactly as in the PCT paper's analysis.
	change []int
	next   int
	// crashAt holds sorted granted-step counts before which one crash
	// decision is injected (uniform in 1..steps, with replacement;
	// coincident points crash consecutively).
	crashAt []int
	nextCr  int
	// recoverAt holds sorted granted-step counts after which one recover
	// decision is injected (uniform in 1..steps, with replacement,
	// drawn after the crash points in the fixed consultation order). A
	// recovery point stays armed until some process is crashed: a point
	// drawn before the first crash fires at the first decision where a
	// crashed process exists.
	recoverAt []int
	nextRv    int
	// last is the process granted the most recent step (0 before any).
	last int
}

func newStrategy(cfg *Config) *strategy {
	src := rand.NewPCG(0, 0)
	return &strategy{
		procs:      cfg.Procs,
		steps:      cfg.Steps,
		d:          cfg.ChangePoints,
		crashes:    cfg.Crashes,
		recoveries: cfg.Recoveries,
		walk:       cfg.Strategy == Walk,
		src:        src,
		rng:        rand.New(src),
		prio:       make([]int, cfg.Procs+1),
		change:     make([]int, 0, cfg.ChangePoints),
		crashAt:    make([]int, 0, cfg.Crashes),
		recoverAt:  make([]int, 0, cfg.Recoveries),
	}
}

// splitMixGamma is SplitMix64's state increment, the odd integer
// closest to 2⁶⁴ divided by the golden ratio.
const splitMixGamma = 0x9e3779b97f4a7c15

// splitMix64 is the SplitMix64 output finalizer (Steele, Lea & Flood,
// "Fast Splittable Pseudorandom Number Generators", OOPSLA 2014): a
// bijection on 64-bit words that spreads every input bit over the
// whole output, so consecutive seeds start unrelated streams.
func splitMix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// reset re-seeds the strategy for one schedule, in O(1): the PCG state
// words are the first two outputs of a SplitMix64 generator started at
// seed. The finalizer is a bijection, so every bit of the seed counts
// and distinct seeds get distinct first words.
func (s *strategy) reset(seed int64) {
	z := uint64(seed) + splitMixGamma
	s.src.Seed(splitMix64(z), splitMix64(z+splitMixGamma))
	s.next, s.nextCr, s.nextRv, s.last = 0, 0, 0, 0
	if !s.walk {
		for p := 1; p <= s.procs; p++ {
			s.prio[p] = s.d + p
		}
		for i := s.procs; i > 1; i-- {
			j := s.rng.IntN(i) + 1
			s.prio[i], s.prio[j] = s.prio[j], s.prio[i]
		}
		s.change = s.change[:0]
		for j := 0; j < s.d; j++ {
			s.change = append(s.change, s.rng.IntN(s.steps)+1)
		}
		sort.Ints(s.change)
	}
	s.crashAt = s.crashAt[:0]
	for j := 0; j < s.crashes; j++ {
		s.crashAt = append(s.crashAt, s.rng.IntN(s.steps)+1)
	}
	sort.Ints(s.crashAt)
	s.recoverAt = s.recoverAt[:0]
	for j := 0; j < s.recoveries; j++ {
		s.recoverAt = append(s.recoverAt, s.rng.IntN(s.steps)+1)
	}
	sort.Ints(s.recoverAt)
}

// decide picks the next decision given the sorted ready and crashed
// sets and the number of granted (non-crash) steps taken so far.
// ok=false ends the schedule. Both execution engines call decide with
// identical argument sequences, so their schedules coincide.
func (s *strategy) decide(ready, crashed []int, step int) (sim.Decision, bool) {
	if len(ready) == 0 {
		return sim.Decision{}, false
	}
	if !s.walk {
		for s.next < len(s.change) && s.change[s.next] <= step {
			if s.last != 0 {
				s.prio[s.last] = s.d - s.next
			}
			s.next++
		}
	}
	if s.nextCr < len(s.crashAt) && s.crashAt[s.nextCr] <= step+1 {
		s.nextCr++
		return sim.Decision{Proc: s.pick(ready), Crash: true}, true
	}
	if s.nextRv < len(s.recoverAt) && s.recoverAt[s.nextRv] <= step+1 && len(crashed) > 0 {
		s.nextRv++
		return sim.Decision{Proc: s.pick(crashed), Recover: true}, true
	}
	p := s.pick(ready)
	s.last = p
	return sim.Decision{Proc: p}, true
}

// pick selects a process from the given sorted set: uniformly for Walk,
// the highest-priority one for PCT (also the crash victim — PCT crashes
// the process that would run — and the recovery candidate among the
// crashed processes).
func (s *strategy) pick(ready []int) int {
	if s.walk {
		return ready[s.rng.IntN(len(ready))]
	}
	best := ready[0]
	for _, p := range ready[1:] {
		if s.prio[p] > s.prio[best] {
			best = p
		}
	}
	return best
}
