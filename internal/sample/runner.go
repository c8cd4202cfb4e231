package sample

import (
	"repro/internal/explore"
	"repro/internal/history"
	"repro/internal/sim"
)

// sessionRunner executes one seeded schedule at a time into a
// schedRec, resetting one persistent sim.Session to its root mark
// between schedules. Restoring to the root re-executes nothing (the
// root mark holds no decisions), so every granted step advances a fresh
// schedule. The returned *explore.Violation is a schedule outcome (the
// rec is still merged); a non-nil error is fatal to the whole sampling
// run.
type sessionRunner struct {
	cfg     *Config
	sess    *sim.Session
	root    *sim.Mark
	strat   *strategy
	mons    explore.MonitorSet // pristine root set, forked per schedule
	cur     explore.MonitorSet // the last clean schedule's fork, reused by the next
	ready   []int
	crashed []int
	prefix  []sim.Decision
}

func newSessionRunner(cfg *Config) (*sessionRunner, error) {
	sess, err := sim.NewSession(sim.SessionConfig{
		Procs:       cfg.Procs,
		Object:      cfg.NewObject(),
		NewObject:   cfg.NewObject,
		NewEnv:      cfg.NewEnv,
		Fingerprint: true,
	})
	if err != nil {
		return nil, err
	}
	return &sessionRunner{
		cfg:   cfg,
		sess:  sess,
		root:  sess.Mark(),
		strat: newStrategy(cfg),
		mons:  cfg.NewMonitors(),
	}, nil
}

func (r *sessionRunner) sample(seed int64, rec *schedRec) (*explore.Violation, error) {
	n, err := r.sess.Restore(r.root)
	rec.resims += n
	if err != nil {
		return nil, err
	}
	r.strat.reset(seed)
	mons := r.mons.Fork(r.cur)
	r.cur = nil
	r.prefix = r.prefix[:0]
	steps := 0
	for {
		r.ready = r.sess.ReadyAppend(r.ready[:0])
		if len(r.ready) == 0 || steps >= r.cfg.Steps {
			break
		}
		r.crashed = r.crashed[:0]
		if r.cfg.Recoveries > 0 {
			r.crashed = r.sess.CrashedAppend(r.crashed)
		}
		d, ok := r.strat.decide(r.ready, r.crashed, steps)
		if !ok {
			break
		}
		info, err := r.sess.Extend(d)
		rec.steps += info.Steps
		steps += info.Steps
		if err != nil {
			return nil, err
		}
		r.prefix = append(r.prefix, d)
		for k, ev := range info.Delta {
			rec.events++
			if merr := mons.Step(ev); merr != nil {
				rec.violated = true
				// Copy the history out of the session's live buffer: the
				// session is reused for later samples, which truncate and
				// extend the backing in place.
				h := append(history.History(nil), r.sess.History()...)
				return &explore.Violation{
					Schedule:   append([]sim.Decision{}, r.prefix...),
					H:          h,
					EventIndex: len(h) - len(info.Delta) + k,
					Cause:      merr,
				}, nil
			}
		}
	}
	rec.fp, rec.fped = r.sess.Fingerprint()
	// A violating schedule's set may back its Violation, so only a clean
	// one is forked into again.
	r.cur = mons
	return nil, nil
}
