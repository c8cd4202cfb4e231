// Package sample is the probabilistic mass-exploration engine: where
// internal/explore enumerates every schedule up to a depth, sample draws
// N seeded schedules from a randomized strategy and checks each one. It
// exists for the regime exhaustive search cannot reach — long schedules
// over many processes — trading certainty for a provable bug-finding
// probability per schedule.
//
// Two strategies are provided. PCT is Probabilistic Concurrency Testing
// (Burckhardt et al., ASPLOS 2010): each schedule draws random distinct
// process priorities plus d priority-change points at uniformly chosen
// steps, always runs the highest-priority ready process, and demotes
// the most recent mover below every initial priority when a change
// point fires; a bug of depth d is found with probability at least
// 1/(n·kᵈ⁻¹) per schedule. Walk picks uniformly among the ready
// processes at every step. Both inject Config.Crashes crash decisions
// at uniformly chosen steps, mirroring exhaustive crash branching
// (only ready processes are crashed: idle and blocked processes take
// no further steps, so crashing them cannot change the future).
//
// The swarm driver fans the N schedules across Workers goroutines.
// Each worker owns one persistent sim.Session that is Mark/Restore-
// reset to the root between schedules (a struct copy under the
// session's snapshot strategy, a fresh object and environment under its
// from-root strategy; see sim.NewSession). Every schedule
// feeds a fork of the monitor set, terminal states are deduplicated by
// their injective configuration fingerprints (Stats.DistinctStates),
// and results are merged in schedule-index order, so for a fixed master
// seed the Stats — including which failure is reported — are identical
// at any worker count: the least-index failing schedule always wins,
// the sampling analogue of exhaustive exploration's preorder-least
// violation rule.
package sample

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/explore"
	"repro/internal/sim"
)

// Strategy selects how schedules are drawn.
type Strategy int

// Strategies.
const (
	// PCT: random priorities with Config.ChangePoints demotion points.
	PCT Strategy = iota
	// Walk: uniform random walk over the ready processes.
	Walk
)

// Config describes a sampling run.
type Config struct {
	// Procs is the number of processes.
	Procs int
	// NewObject creates a fresh implementation instance.
	NewObject func() sim.Object
	// NewEnv creates a fresh environment instance.
	NewEnv func() sim.Environment
	// NewMonitors creates the root monitor set once per sampling run;
	// every schedule steps a fork of it. A Step error is the violation,
	// reported wrapped in an *explore.Violation. Required.
	NewMonitors func() explore.MonitorSet
	// Schedules is the number of seeded schedules to sample.
	Schedules int
	// Steps bounds each schedule's granted (non-crash) steps.
	Steps int
	// Crashes injects at most this many crash decisions per schedule,
	// at uniformly chosen steps. 0 disables crash injection.
	Crashes int
	// Recoveries injects at most this many recover decisions per
	// schedule, at uniformly chosen steps. A recovery point fires at the
	// first decision at or after its step where some process is crashed
	// (a point drawn before any crash stays armed). The schedule ends at
	// the first configuration with no ready process, even with a process
	// crashed and a point armed: no recovery fires there. 0 disables
	// recovery injection; it only matters together with Crashes > 0.
	Recoveries int
	// Strategy selects PCT or Walk.
	Strategy Strategy
	// ChangePoints is PCT's d: the number of priority-change points per
	// schedule (ignored by Walk).
	ChangePoints int
	// Seed is the master seed: schedule i draws all its randomness from
	// Seed+i, so a schedule is reproduced by re-running with its
	// recorded seed and Schedules=1.
	Seed int64
	// Workers is the number of sampling lanes (clamped to [1,
	// Schedules]). Stats are worker-count independent.
	Workers int
	// Spawn optionally offers the extra worker loops of Workers > 1 to
	// an external executor instead of spawning goroutines: loop 0
	// always runs inline on the calling goroutine, so the run makes
	// progress regardless of what the executor does with the offers.
	// Spawn returns whether it accepted a loop; an accepted loop must
	// eventually be run (it exits promptly when no chunks remain), a
	// declined one is simply not started. This is how the slxd service
	// distributes a job's fixed ChunkSize-index chunks across its
	// bounded worker pool while keeping the merged Stats — including
	// which failure is reported — identical to the in-process run. Nil
	// spawns goroutines as before.
	Spawn func(loop func()) bool
	// Ctx cancels the run; it is polled once per schedule. On
	// cancellation Run returns the context error together with partial
	// Stats marked Interrupted.
	Ctx context.Context
}

// Stats is the outcome of a sampling run. All fields except Workers are
// functions of the Config alone — never of worker timing — because they
// are accumulated over the deterministic merged prefix of schedules: on
// a violation, the least failing schedule index and every schedule
// before it; on cancellation, the completed prefix.
type Stats struct {
	// Schedules counts the sampled schedules merged into these stats.
	Schedules int
	// DistinctStates counts the distinct terminal-state fingerprints
	// among them (0 when the object does not implement
	// sim.Fingerprintable).
	DistinctStates int
	// Steps counts granted simulator steps across the merged schedules.
	Steps int
	// Resims counts steps session restores re-executed (0 in practice:
	// restoring to the root re-executes nothing).
	Resims int
	// Events counts the events fed to the monitor set.
	Events int
	// Workers is the number of sampling goroutines actually used.
	Workers int
	// Failed reports a violation; FailingSchedule is its index and
	// FailingSeed its seed (Config.Seed+FailingSchedule).
	Failed          bool
	FailingSchedule int
	FailingSeed     int64
	// Interrupted marks stats cut short by context cancellation.
	Interrupted bool
}

// ChunkSize is the work-claiming granularity: workers claim blocks of
// ChunkSize consecutive schedule indices, and blocks merge in index
// order. A pure constant (never derived from timing or worker count) so
// the merge order — and with it every Stats field — is reproducible no
// matter which worker, goroutine or external pool slot (Config.Spawn)
// executes which chunk. Exported so the service layer can report and
// document its sharding granularity without restating the number.
const ChunkSize = 64

// schedRec is the per-schedule record a worker hands to the merge.
type schedRec struct {
	ran      bool // executed (false: skipped after a failure bound or cancellation)
	violated bool
	fped     bool
	fp       uint64
	steps    int
	resims   int
	events   int
}

// chunkResult is one claimed block's outcome.
type chunkResult struct {
	recs []schedRec
	vio  *explore.Violation // the violation of the block's single violated rec
}

// Run samples Config.Schedules seeded schedules and returns the merged
// Stats. A violation is returned as an *explore.Violation error (Stats
// non-nil, describing the merged prefix through the failing schedule);
// cancellation returns the context error with partial Stats; engine
// failures return a nil Stats.
func Run(cfg Config) (*Stats, error) {
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	if cfg.Ctx == nil {
		cfg.Ctx = context.Background()
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > cfg.Schedules {
		workers = cfg.Schedules
	}
	p := &pool{
		cfg:        &cfg,
		chunks:     (cfg.Schedules + ChunkSize - 1) / ChunkSize,
		pending:    make(map[int]*chunkResult),
		maxPending: 4 * workers,
		distinct:   make(map[uint64]struct{}),
		st:         &Stats{Workers: workers},
	}
	p.cond = sync.NewCond(&p.mu)
	p.failBound.Store(math.MaxInt64)
	// A loop that starts after every chunk is claimed exits immediately.
	explore.RunLoops(workers, cfg.Spawn, func(int) { p.worker() })
	p.st.DistinctStates = len(p.distinct)
	switch {
	case p.fatal != nil:
		return nil, p.fatal
	case p.vio != nil:
		return p.st, p.vio
	case p.st.Interrupted:
		err := cfg.Ctx.Err()
		if err == nil {
			err = context.Canceled
		}
		return p.st, err
	default:
		return p.st, nil
	}
}

func validate(cfg *Config) error {
	switch {
	case cfg.Procs < 1:
		return errors.New("sample: Procs must be >= 1")
	case cfg.NewObject == nil || cfg.NewEnv == nil:
		return errors.New("sample: NewObject and NewEnv are required")
	case cfg.NewMonitors == nil:
		return errors.New("sample: NewMonitors is required")
	case cfg.Schedules < 1:
		return errors.New("sample: Schedules must be >= 1")
	case cfg.Steps < 1:
		return errors.New("sample: Steps must be >= 1")
	case cfg.Crashes < 0 || cfg.Recoveries < 0 || cfg.ChangePoints < 0:
		return errors.New("sample: Crashes, Recoveries and ChangePoints must be >= 0")
	case cfg.Crashes > cfg.Steps || cfg.Recoveries > cfg.Steps || cfg.ChangePoints > cfg.Steps:
		return errors.New("sample: Crashes, Recoveries and ChangePoints must be <= Steps (each point is drawn from steps 1..Steps)")
	}
	return nil
}

// pool coordinates the workers: chunk claiming with bounded pending
// results, the in-order merge, and the failure bound that lets workers
// skip schedules a known earlier failure makes irrelevant.
type pool struct {
	cfg    *Config
	chunks int

	mu         sync.Mutex
	cond       *sync.Cond
	nextChunk  int                  // next chunk index to claim
	cursor     int                  // next chunk index to merge
	pending    map[int]*chunkResult // submitted chunks not yet reached by cursor
	maxPending int                  // claim-ahead bound (memory backpressure)
	stopped    bool                 // merge finished (violation, cancellation, or fatal)
	st         *Stats
	distinct   map[uint64]struct{}
	vio        *explore.Violation
	fatal      error

	// failBound is the least schedule index any worker has seen violate
	// (MaxInt64 until then). Only schedules with larger indices are ever
	// skipped, and the bound only decreases, so every schedule below the
	// final reported failure is guaranteed to have run — which is what
	// makes the merged Stats worker-count independent.
	failBound atomic.Int64
	cancelled atomic.Bool
}

func (p *pool) worker() {
	r, err := newSessionRunner(p.cfg)
	if err != nil {
		p.setFatal(err)
		return
	}
	defer r.sess.Close()
	for {
		c := p.claim()
		if c < 0 {
			return
		}
		p.submit(c, p.runChunk(r, c))
	}
}

// claim hands out the next chunk, waiting while the merge is too far
// behind, and returns -1 when no useful work remains.
func (p *pool) claim() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.fatal != nil || p.cancelled.Load() {
			return -1
		}
		if p.nextChunk >= p.chunks {
			return -1
		}
		if int64(p.nextChunk)*ChunkSize > p.failBound.Load() {
			return -1
		}
		if p.nextChunk-p.cursor < p.maxPending {
			c := p.nextChunk
			p.nextChunk++
			return c
		}
		p.cond.Wait()
	}
}

// runChunk samples the chunk's schedules, polling the context and the
// failure bound before each one.
func (p *pool) runChunk(r *sessionRunner, c int) *chunkResult {
	lo := c * ChunkSize
	hi := lo + ChunkSize
	if hi > p.cfg.Schedules {
		hi = p.cfg.Schedules
	}
	res := &chunkResult{recs: make([]schedRec, hi-lo)}
	for i := range res.recs {
		idx := lo + i
		if p.cfg.Ctx.Err() != nil {
			p.cancel()
		}
		if p.cancelled.Load() {
			break
		}
		if int64(idx) > p.failBound.Load() {
			break
		}
		rec := &res.recs[i]
		rec.ran = true
		vio, err := r.sample(p.cfg.Seed+int64(idx), rec)
		if err != nil {
			rec.ran = false
			p.setFatal(err)
			break
		}
		if vio != nil {
			p.lowerBound(int64(idx))
			res.vio = vio
			break
		}
	}
	return res
}

// submit stores a finished chunk and advances the in-order merge over
// every contiguous chunk now available.
func (p *pool) submit(c int, res *chunkResult) {
	p.mu.Lock()
	p.pending[c] = res
	for {
		r, ok := p.pending[p.cursor]
		if !ok {
			break
		}
		delete(p.pending, p.cursor)
		if !p.stopped {
			p.merge(p.cursor, r)
		}
		p.cursor++
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// merge folds one chunk into the Stats in schedule order, stopping the
// whole merge at the first violated or unexecuted record. Callers hold
// p.mu.
func (p *pool) merge(c int, res *chunkResult) {
	lo := c * ChunkSize
	for i := range res.recs {
		rec := &res.recs[i]
		if !rec.ran {
			// Only cancellation (or a fatal error) leaves an unexecuted
			// record ahead of every violation; the stats stay a clean
			// prefix.
			p.stopped = true
			p.st.Interrupted = p.fatal == nil
			return
		}
		p.st.Schedules++
		p.st.Steps += rec.steps
		p.st.Resims += rec.resims
		p.st.Events += rec.events
		if rec.violated {
			idx := lo + i
			p.st.Failed = true
			p.st.FailingSchedule = idx
			p.st.FailingSeed = p.cfg.Seed + int64(idx)
			p.vio = res.vio
			p.stopped = true
			return
		}
		if rec.fped {
			p.distinct[rec.fp] = struct{}{}
		}
	}
}

// lowerBound lowers the failure bound to idx if it improves it.
func (p *pool) lowerBound(idx int64) {
	for {
		cur := p.failBound.Load()
		if cur <= idx || p.failBound.CompareAndSwap(cur, idx) {
			return
		}
	}
}

func (p *pool) cancel() {
	p.cancelled.Store(true)
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *pool) setFatal(err error) {
	p.cancelled.Store(true)
	p.mu.Lock()
	if p.fatal == nil {
		p.fatal = err
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}
