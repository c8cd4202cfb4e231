package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/slx"
)

// Config configures a Server.
type Config struct {
	// Workers is the pool size: the number of goroutines that run jobs
	// and absorb engine worker-loop offers (default 4).
	Workers int
	// Queue is the job queue capacity; submits beyond it get HTTP 429
	// (default 64).
	Queue int
	// SpillDir, when non-empty, is where terminal jobs are written as
	// job-<id>.json and reloaded from on startup.
	SpillDir string
}

// Server is the slxd exploration service: the HTTP API, the bounded
// worker pool, the results store, and the metrics registry.
//
// Sharding happens beneath the slx API. A job occupies one pool worker,
// which drives a plain slx.Checker; when the job's spec asks for more
// than one engine worker, the extra engine loops — stolen-subtree
// workers for exhaustive jobs, chunk-claiming sampling lanes — are
// offered to the pool via slx.WithExecutor. Idle pool workers accept
// offers and run loops for whichever job made them; a saturated pool
// declines, and the job still completes on its own worker (engine loop
// 0 always runs inline). Either way the report is the one the slx API
// defines: verdicts, witnesses and deterministic counters match an
// in-process run by construction.
type Server struct {
	store   *Store
	metrics *Metrics
	mux     *http.ServeMux

	jobs chan string // queued job IDs
	// boost carries offered engine worker loops. It is unbuffered on
	// purpose: an offer succeeds only when an idle worker is already
	// receiving, so an accepted loop always runs — nothing can strand
	// in a buffer after workers exit, which would hang the engine's
	// WaitGroup.
	boost chan func()

	mu      sync.Mutex
	closing bool
	cancels map[string]context.CancelFunc
	tiers   map[string]*slx.VisitedTier

	// baseCtx parents every job context; baseCancel is the shutdown
	// hard-stop.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
}

// NewServer builds a server and starts its worker pool.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 64
	}
	store, err := NewStore(cfg.SpillDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		store:      store,
		metrics:    NewMetrics(),
		jobs:       make(chan string, cfg.Queue),
		boost:      make(chan func()),
		cancels:    make(map[string]context.CancelFunc),
		tiers:      make(map[string]*slx.VisitedTier),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/targets", s.handleTargets)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the metrics registry.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Store returns the results store.
func (s *Server) Store() *Store { return s.store }

// Shutdown drains the service: no new submits, queued jobs still run,
// then the pool exits. If ctx expires before the drain finishes, every
// job still queued or running is cancelled — each stores its partial,
// Interrupted result — and Shutdown waits for that (fast) wind-down
// before returning ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closing {
		s.closing = true
		close(s.jobs)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return ctx.Err()
	}
}

// worker is one pool goroutine: it runs queued jobs and, while idle,
// accepts engine worker loops offered by jobs running elsewhere in the
// pool.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case id, ok := <-s.jobs:
			if !ok {
				return
			}
			s.runJob(id)
		case loop := <-s.boost:
			loop()
		}
	}
}

// offer is the slx.WithExecutor hook: hand an engine worker loop to an
// idle pool worker, or decline so the engine folds the loop's share of
// work into its remaining lanes.
func (s *Server) offer(loop func()) bool {
	select {
	case s.boost <- loop:
		return true
	default:
		return false
	}
}

// tierFor returns the shared visited tier for a spec's target,
// creating it on first use. Visited entries are sound to share only
// between checkers with identical object, environment and monitor
// configurations, and a target fixes all three, its process count
// included (JobChecker rejects any other); budgets such as depth and
// crashes are carried in the entries themselves and compose by
// domination.
func (s *Server) tierFor(spec JobSpec) *slx.VisitedTier {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tiers[spec.Target]
	if !ok {
		t = slx.NewVisitedTier()
		s.tiers[spec.Target] = t
	}
	return t
}

// checker builds the job's checker and property through JobChecker,
// adding the service-level shared tier, context and executor hook. The
// target is resolved first, so a rejected spec never creates a tier
// that would live as long as the daemon.
func (s *Server) checker(ctx context.Context, spec JobSpec) (*slx.Checker, slx.Property, error) {
	if _, err := resolveTarget(spec); err != nil {
		return nil, nil, err
	}
	var extra []slx.Option
	if spec.SharedCache {
		extra = append(extra, slx.WithVisitedTier(s.tierFor(spec)))
	}
	if ctx != nil {
		extra = append(extra, slx.WithContext(ctx))
	}
	return JobChecker(spec, append(extra, slx.WithExecutor(s.offer))...)
}

// Submit validates and enqueues a job. The error string of a rejected
// spec is exactly what the in-process checker would return from
// ValidateExplore, so a client can fix a spec against either surface.
func (s *Server) Submit(spec JobSpec) (Job, int, error) {
	if err := spec.normalize(); err != nil {
		return Job{}, http.StatusBadRequest, err
	}
	c, prop, err := s.checker(nil, spec)
	if err != nil {
		return Job{}, http.StatusBadRequest, err
	}
	if err := c.ValidateExplore(prop); err != nil {
		return Job{}, http.StatusBadRequest, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return Job{}, http.StatusServiceUnavailable, errors.New("service is shutting down")
	}
	j := s.store.Add(spec)
	select {
	case s.jobs <- j.ID:
	default:
		s.store.Delete(j.ID)
		return Job{}, http.StatusTooManyRequests, fmt.Errorf("job queue full (%d queued)", cap(s.jobs))
	}
	s.metrics.JobsQueued.Add(1)
	return j, http.StatusAccepted, nil
}

// Cancel cancels a job: a queued job goes terminal immediately, a
// running one has its context cancelled and stores its partial result
// when the engine unwinds. Terminal jobs are left as they are.
func (s *Server) Cancel(id string) (Job, bool) {
	fromQueue := false
	j, ok := s.store.Update(id, func(j *Job) {
		if j.State == StateQueued {
			j.State = StateCancelled
			j.Error = "cancelled before start"
			//slx:nondet job lifecycle timestamp: API metadata, never reaches exploration results
			j.Finished = time.Now()
			fromQueue = true
		}
	})
	if !ok {
		return Job{}, false
	}
	if fromQueue {
		s.metrics.JobsQueued.Add(-1)
		s.metrics.JobsCancelled.Add(1)
	}
	s.mu.Lock()
	cancel := s.cancels[id]
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return j, true
}

// runJob executes one queued job on the calling pool worker.
func (s *Server) runJob(id string) {
	// Register the job's cancel function before claiming it: once the
	// job reads running, a Cancel must find it.
	ctx, cancel := context.WithCancel(s.baseCtx)
	s.mu.Lock()
	s.cancels[id] = cancel
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.cancels, id)
		s.mu.Unlock()
		cancel()
	}()

	// Claim the job; a queued job cancelled before pickup stays
	// cancelled and is not run.
	//slx:nondet job duration measurement: metrics only, never reaches exploration results
	start := time.Now()
	claimed := false
	s.store.Update(id, func(j *Job) {
		if j.State == StateQueued {
			j.State = StateRunning
			j.Started = start
			claimed = true
		}
	})
	if !claimed {
		return
	}
	s.metrics.JobsQueued.Add(-1)
	s.metrics.JobsRunning.Add(1)
	defer s.metrics.JobsRunning.Add(-1)

	j, _ := s.store.Get(id)

	c, prop, err := s.checker(ctx, j.Spec)
	if err != nil {
		// Unreachable for queued jobs (Submit validated the spec), but
		// kept for defense in depth.
		s.finishJob(id, start, nil, err)
		return
	}
	rep, err := c.Explore(prop)
	s.finishJob(id, start, rep, err)
}

// finishJob classifies a job's outcome, stores it, and records metrics.
func (s *Server) finishJob(id string, start time.Time, rep *slx.Report, err error) {
	//slx:nondet job completion timestamp: API metadata, never reaches exploration results
	end := time.Now()
	var res *Result
	if rep != nil {
		res = NewResult(rep)
	}
	state := StateDone
	msg := ""
	if err != nil {
		msg = err.Error()
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			state = StateCancelled
		} else {
			state = StateFailed
			res = nil
		}
	}
	s.store.Update(id, func(j *Job) {
		j.State = state
		j.Finished = end
		j.DurationMs = end.Sub(start).Milliseconds()
		j.Result = res
		j.Error = msg
	})
	switch state {
	case StateDone:
		s.metrics.JobsDone.Add(1)
	case StateCancelled:
		s.metrics.JobsCancelled.Add(1)
	case StateFailed:
		s.metrics.JobsFailed.Add(1)
	}
	if rep != nil {
		s.metrics.Prefixes.Add(int64(rep.Prefixes))
		s.metrics.CacheHits.Add(int64(rep.CacheHits))
		s.metrics.Schedules.Add(int64(rep.Schedules))
	}
	s.metrics.ObserveJob(end.Sub(start))
}

// --- HTTP handlers ---

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad job spec: %w", err))
		return
	}
	j, status, err := s.Submit(spec)
	if err != nil {
		httpError(w, status, err)
		return
	}
	writeJSON(w, status, j)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.store.List())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (s *Server) handleTargets(w http.ResponseWriter, r *http.Request) {
	type targetInfo struct {
		Name  string `json:"name"`
		About string `json:"about"`
	}
	var out []targetInfo
	for _, name := range TargetNames() {
		t, _ := LookupTarget(name)
		out = append(out, targetInfo{Name: t.Name, About: t.About})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closing := s.closing
	s.mu.Unlock()
	if closing {
		httpError(w, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = s.metrics.WriteTo(w)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// httpError writes {"error": "..."} with the given status. The message
// is the error's text verbatim — for rejected specs that is exactly the
// in-process ValidateExplore message.
func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
