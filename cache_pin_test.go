package repro_test

// The cache pin fixes the state cache's figures for every
// fingerprintable object built from internal/base: a fingerprint that
// merged two configurations the committed one keeps apart, or split
// two it merges, moves the cache hits, and with them the prefixes,
// pruning and sim steps. The figures were recorded at the commit whose
// objects still wrote their fingerprints by hand, so the table checks
// that the folds derived from their memories split states exactly as
// the hand-written ones did.

import (
	"testing"

	"repro/internal/consensus"
	"repro/internal/history"
	"repro/internal/mutex"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/slx"
	"repro/slx/check"
)

// cacheFigures are one Explore's pinned deterministic counters.
type cacheFigures struct {
	prefixes, hits, pruned, simSteps int
	ok                               bool
}

// cachePin is one object under the state cache, alone and with POR.
type cachePin struct {
	name string
	opts []slx.Option
	prop func() slx.Property
	// replay explores on the from-root strategy: the figures were
	// recorded when the object had no snapshot hook, and sim steps
	// differ between the strategies. The default strategy must reach
	// the same tree.
	replay          bool
	cache, porCache cacheFigures
}

func cachePins() []cachePin {
	proposeOnce := func() sim.Environment {
		return consensus.ProposeOnce(map[int]history.Value{1: 0, 2: 1})
	}
	lockLoop := func() sim.Environment { return mutex.AcquireReleaseLoop(2) }
	queueScript := func() sim.Environment {
		return sim.Script(map[int][]sim.Invocation{
			1: {{Op: "enq", Arg: 1}, {Op: "deq"}},
			2: {{Op: "enq", Arg: 2}, {Op: "deq"}},
		})
	}
	object := func(obj func() sim.Object, env func() sim.Environment, depth int) []slx.Option {
		return []slx.Option{
			slx.WithProcs(2),
			slx.WithDepth(depth),
			slx.WithObject(obj),
			slx.WithEnv(env),
		}
	}
	return []cachePin{
		{
			name:     "commit-adopt",
			opts:     object(func() sim.Object { return consensus.NewCommitAdoptOF(2) }, proposeOnce, 12),
			prop:     check.AgreementValidity,
			cache:    cacheFigures{189, 58, 0, 188, true},
			porCache: cacheFigures{119, 2, 70, 118, true},
		},
		{
			name:     "cas-consensus",
			opts:     object(func() sim.Object { return consensus.NewCASBased() }, proposeOnce, 8),
			prop:     check.AgreementValidity,
			cache:    cacheFigures{29, 7, 0, 28, true},
			porCache: cacheFigures{24, 1, 7, 23, true},
		},
		{
			name:     "locked-queue",
			opts:     object(func() sim.Object { return queue.NewLocked() }, queueScript, 13),
			prop:     func() slx.Property { return check.Linearizability(check.QueueSpec{}) },
			cache:    cacheFigures{507, 124, 0, 506, true},
			porCache: cacheFigures{352, 2, 160, 351, true},
		},
		{
			name:     "peterson",
			opts:     object(func() sim.Object { return mutex.NewPeterson() }, lockLoop, 10),
			prop:     check.MutualExclusion,
			cache:    cacheFigures{177, 41, 0, 176, true},
			porCache: cacheFigures{142, 9, 57, 141, true},
		},
		{
			name:     "tas-lock",
			opts:     object(func() sim.Object { return mutex.NewTASLock() }, lockLoop, 10),
			prop:     check.MutualExclusion,
			cache:    cacheFigures{205, 49, 0, 204, true},
			porCache: cacheFigures{190, 27, 40, 189, true},
		},
		{
			name:     "bakery",
			opts:     object(func() sim.Object { return mutex.NewBakery(2) }, lockLoop, 10),
			prop:     check.MutualExclusion,
			replay:   true,
			cache:    cacheFigures{123, 32, 0, 505, true},
			porCache: cacheFigures{123, 32, 0, 505, true},
		},
	}
}

// TestCachePin checks every pinned object's cache figures.
func TestCachePin(t *testing.T) {
	for _, c := range cachePins() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, mode := range []struct {
				name string
				opts []slx.Option
				want cacheFigures
			}{
				{"cache", []slx.Option{slx.WithStateCache()}, c.cache},
				{"por+cache", []slx.Option{slx.WithPOR(), slx.WithStateCache()}, c.porCache},
			} {
				opts := append(c.opts[:len(c.opts):len(c.opts)], mode.opts...)
				opts = opts[:len(opts):len(opts)]
				explore := opts
				if c.replay {
					explore = append(opts, slx.WithReplayExecution())
				}
				rep, err := slx.New(explore...).Explore(c.prop())
				if err != nil {
					t.Fatal(err)
				}
				got := cacheFigures{rep.Prefixes, rep.CacheHits, rep.Pruned, rep.SimSteps, rep.OK()}
				if got != mode.want {
					t.Errorf("%s: got %+v, pinned %+v", mode.name, got, mode.want)
				}
				if got.hits == 0 {
					t.Errorf("%s: no cache hits: the pin checks nothing", mode.name)
				}
				if !c.replay {
					continue
				}
				def, err := slx.New(opts...).Explore(c.prop())
				if err != nil {
					t.Fatal(err)
				}
				if def.Prefixes != got.prefixes || def.CacheHits != got.hits || def.Pruned != got.pruned || def.OK() != got.ok {
					t.Errorf("%s: default strategy reached prefixes %d, hits %d, pruned %d, ok %v; from root %+v",
						mode.name, def.Prefixes, def.CacheHits, def.Pruned, def.OK(), got)
				}
			}
		})
	}
}
