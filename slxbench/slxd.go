package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"reflect"
	"time"

	"repro/internal/service"
)

// This file runs the slxd-open workload: an open loop that submits jobs
// at a fixed rate to an in-process slxd server over loopback HTTP, polls
// each job until it is terminal, and now and then lists jobs and scrapes
// /metrics. One goroutine sends and one polls, each on its own
// connection. A job's latency runs from the moment it was due, so a stall
// that makes the sender late is charged to every job it delays.

const (
	slxdRate      = 100.0 // jobs per second
	slxdWorkers   = 2     // server pool workers
	slxdQueue     = 64
	slxdListEvery = 5 * time.Second
	slxdPollGap   = time.Millisecond
)

// slxdRecord is one submitted job as the client saw it.
type slxdRecord struct {
	job                 int
	due, sent, accepted time.Time
	seen                time.Time // the client first saw the job terminal
	status              int
	// final is the job as last polled; only the first pass keeps its
	// Result, later passes keep its counters in n.
	final   service.Job
	n       counts
	polls   int
	failure string
}

func resultCounts(r *service.Result) counts {
	return counts{
		ok: r.OK, prefixes: r.Prefixes, schedules: r.Schedules, steps: r.SimSteps,
		resims: r.Resims, cacheHits: r.CacheHits, pruned: r.Pruned, distinct: r.DistinctStates,
	}
}

// slxdServer is an slxd server listening on loopback.
type slxdServer struct {
	srv  *service.Server
	http *http.Server
	base string
	done chan error
}

func startServer() (*slxdServer, error) {
	srv, err := service.NewServer(service.Config{Workers: slxdWorkers, Queue: slxdQueue})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	s := &slxdServer{srv: srv, http: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the HTTP server and then the pool down and waits for both.
func (s *slxdServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if perr := s.srv.Shutdown(ctx); err == nil {
		err = perr
	}
	return err
}

// newClient returns a client holding at most one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}, Timeout: time.Minute}
}

// submit posts a job spec and returns the accepted job or the refusal.
func submit(c *http.Client, base string, spec service.JobSpec) (service.Job, int, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return service.Job{}, 0, err
	}
	resp, err := c.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return service.Job{}, 0, err
	}
	defer resp.Body.Close()
	var j service.Job
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return j, resp.StatusCode, fmt.Errorf("submit %s: %s: %s", spec.Target, resp.Status, bytes.TrimSpace(msg))
	}
	return j, resp.StatusCode, json.NewDecoder(resp.Body).Decode(&j)
}

// getJSON decodes a GET response into v (nil: read and drop the body).
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func terminal(state string) bool {
	return state == service.StateDone || state == service.StateFailed || state == service.StateCancelled
}

// openLoop submits n jobs, cycling through specs, at the given rate, and
// waits until every accepted job is terminal, sweeping the open jobs
// every pollGap. It returns one record per job and the durations of the
// job listings it made.
func openLoop(base string, specs []service.JobSpec, rate float64, n int, pollGap time.Duration) ([]*slxdRecord, []time.Duration) {
	recs := make([]*slxdRecord, n)
	accepted := make(chan *slxdRecord, n) // sized to the sends: the sender never blocks on it
	start := time.Now()
	go func() {
		defer close(accepted)
		c := newClient()
		defer c.CloseIdleConnections()
		for k := 0; k < n; k++ {
			r := &slxdRecord{job: k % len(specs), due: start.Add(time.Duration(float64(k) / rate * float64(time.Second)))}
			recs[k] = r
			time.Sleep(time.Until(r.due))
			r.sent = time.Now()
			j, status, err := submit(c, base, specs[r.job])
			r.accepted, r.status, r.final = time.Now(), status, j
			if err != nil {
				r.failure = err.Error()
				continue
			}
			accepted <- r
		}
	}()

	c := newClient()
	defer c.CloseIdleConnections()
	var lists []time.Duration
	nextList := start.Add(slxdListEvery)
	var open []*slxdRecord
	more := true
	for more || len(open) > 0 {
		if len(open) == 0 {
			r, ok := <-accepted
			if !ok {
				break
			}
			open = append(open, r)
		}
		for drained := false; more && !drained; {
			select {
			case r, ok := <-accepted:
				if !ok {
					more = false
				} else {
					open = append(open, r)
				}
			default:
				drained = true
			}
		}
		kept := open[:0]
		for _, r := range open {
			var j service.Job
			r.polls++
			if err := getJSON(c, base+"/v1/jobs/"+r.final.ID, &j); err != nil {
				r.failure = err.Error()
				continue
			}
			if terminal(j.State) {
				r.seen, r.final = time.Now(), j
				if j.Result != nil {
					r.n = resultCounts(j.Result)
				}
				// A later pass must repeat the first pass's result; then
				// only its counters are kept.
				if first := recs[r.job]; first != r && j.Result != nil {
					if first.final.Result != nil && !reflect.DeepEqual(*first.final.Result, *j.Result) {
						r.failure = fmt.Sprintf("%s: result differs from the first pass", specs[r.job].Target)
					}
					r.final.Result = nil
				}
				continue
			}
			kept = append(kept, r)
		}
		open = kept
		if time.Now().After(nextList) {
			t0 := time.Now()
			if err := getJSON(c, base+"/v1/jobs", nil); err == nil {
				lists = append(lists, time.Since(t0))
			}
			_ = getJSON(c, base+"/metrics", nil) // a scrape failure is not a job failure
			nextList = nextList.Add(slxdListEvery)
		}
		if len(open) > 0 && pollGap > 0 {
			time.Sleep(pollGap)
		}
	}
	return recs, lists
}

// slxdRun is one slxd-open run: the server, the job list and what each
// job's result must be.
type slxdRun struct {
	specs []service.JobSpec
	srv   *slxdServer
	// want is each job's in-process report, and replay the failure of
	// replaying its witness ("" when it replays or there is none).
	want   []*service.Result
	replay []string
}

// setupSlxd generates the job list, builds and validates every job's
// in-process checker, explores each distinct job in process for the
// report its slxd result must equal and replays its witness, then starts
// the server and runs one job of each target family through it.
func setupSlxd(seed int64) (*slxdRun, error) {
	specs, err := generate(wlSlxdOpen, seed)
	if err != nil {
		return nil, err
	}
	r := &slxdRun{specs: specs, want: make([]*service.Result, len(specs)), replay: make([]string, len(specs))}
	first := map[string]int{}
	for i, s := range specs {
		c, prop, err := checkerFor(s)
		if err != nil {
			return nil, err
		}
		if err := c.ValidateExplore(prop); err != nil {
			return nil, fmt.Errorf("job %d (%s): %w", i, s.Target, err)
		}
		if k, ok := first[jobKey(s)]; ok {
			r.want[i], r.replay[i] = r.want[k], r.replay[k]
			continue
		}
		first[jobKey(s)] = i
		rep, err := c.Explore(prop)
		if err != nil {
			return nil, fmt.Errorf("job %d (%s): %w", i, s.Target, err)
		}
		r.want[i] = service.NewResult(rep)
		if f := rep.Failures(); len(f) > 0 {
			r.replay[i] = replayWitness(s, f[0].Property, f[0].Witness)
		}
	}
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	// The warm-up sends its jobs back to back and polls without pausing,
	// so setup time is not padded by the send schedule or the poll cadence.
	var warm []service.JobSpec
	for _, i := range warmUpJobs(specs) {
		warm = append(warm, specs[i])
	}
	recs, _ := openLoop(srv.base, warm, math.Inf(1), len(warm), 0)
	for _, rec := range recs {
		if msg := slxdFailure(warm, rec); msg != "" {
			_ = srv.stop()
			return nil, fmt.Errorf("warm-up job: %s", msg)
		}
	}
	r.srv = srv
	return r, nil
}

// slxdFailure checks a record's verdict (not yet its parity).
func slxdFailure(specs []service.JobSpec, r *slxdRecord) string {
	switch {
	case r.failure != "":
		return r.failure
	case r.final.State != service.StateDone:
		return fmt.Sprintf("%s: job %s ended %s: %s", specs[r.job].Target, r.final.ID, r.final.State, r.final.Error)
	case r.n.ok != expectOK(specs[r.job]):
		return fmt.Sprintf("%s %+v: verdict ok=%v, want ok=%v", specs[r.job].Target, specs[r.job].Spec, r.n.ok, expectOK(specs[r.job]))
	}
	return ""
}

// measure runs the open loop for whole passes over the job list.
func (r *slxdRun) measure(d time.Duration) ([]*slxdRecord, []time.Duration) {
	passes := max(1, int(d.Seconds()*slxdRate/float64(len(r.specs))+0.5))
	return openLoop(r.srv.base, r.specs, slxdRate, passes*len(r.specs), slxdPollGap)
}

// verify compares every result with the in-process report for the same
// spec — verdict, witness and the deterministic counters of a one-worker
// run — and with its witness's replay. It returns the failure of each
// record ("" when it checked out).
func (r *slxdRun) verify(recs []*slxdRecord) []string {
	out := make([]string, len(recs))
	for k, rec := range recs {
		if out[k] = slxdFailure(r.specs, rec); out[k] != "" {
			continue
		}
		s := r.specs[rec.job]
		switch {
		case rec.final.Result == nil:
			// A later pass: compared with the first pass as it arrived.
		case !reflect.DeepEqual(*rec.final.Result, *r.want[rec.job]):
			out[k] = fmt.Sprintf("%s %+v: slxd result differs from the in-process report", s.Target, s.Spec)
		case r.replay[rec.job] != "":
			out[k] = r.replay[rec.job]
		}
	}
	return out
}

// passMetrics derives the end-to-end metrics of an slxd-open run as the
// in-process workloads do: each whole pass over the job list yields every
// figure, and the run reports their median.
func (r *slxdRun) passMetrics(recs []*slxdRecord) []metric {
	var passes [][]metric
	for k, n := 0, len(r.specs); k+n <= len(recs); k += n {
		passes = append(passes, slxdMetrics(r.specs, recs[k:k+n]))
	}
	return medianMetrics(passes)
}

// slxdMetrics derives the end-to-end metrics of a set of slxd-open jobs.
func slxdMetrics(specs []service.JobSpec, recs []*slxdRecord) []metric {
	var verdicts, lags, bugMs, toBug []float64
	var nodes, runS, sched, schedS float64
	for _, r := range recs {
		lags = append(lags, ms(r.sent.Sub(r.due)))
		if r.seen.IsZero() || r.final.State != service.StateDone {
			continue
		}
		v := ms(r.seen.Sub(r.due))
		verdicts = append(verdicts, v)
		s := specs[r.job]
		run := r.final.Finished.Sub(r.final.Started).Seconds()
		runS += run
		if s.Sample {
			nodes += float64(r.n.steps)
		} else {
			nodes += float64(r.n.prefixes)
		}
		n := r.n.scheduleCount(s)
		if !expectOK(s) {
			bugMs = append(bugMs, v)
			toBug = append(toBug, float64(n))
			continue
		}
		sched += float64(n)
		schedS += run
	}
	return latencyMetrics(verdicts, lags, bugMs, toBug, ratio(nodes, runS), ratio(sched, schedS))
}

// slxdLayers derives the service-layer metrics from client spans joined
// with each job's Submitted, Started and Finished timestamps, and the
// ratio of the layer breakdown to the latency from due time. The parts
// partition that latency when the timestamps are in order; each is
// clamped at 0, so timestamps out of order (the server's are wall-clock
// readings, the client's monotonic) push the ratio above 1.
func slxdLayers(recs []*slxdRecord, lists []time.Duration) ([]metric, float64) {
	var submitMs, waitMs, runMs, notifyMs, verdicts, listMs []float64
	var polls, rejected, parts float64
	for _, r := range recs {
		if r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable {
			rejected++
		}
		if r.seen.IsZero() {
			continue
		}
		j := r.final
		submitMs = append(submitMs, ms(r.accepted.Sub(r.sent)))
		waitMs = append(waitMs, ms(j.Started.Sub(j.Submitted)))
		runMs = append(runMs, ms(j.Finished.Sub(j.Started)))
		notifyMs = append(notifyMs, ms(r.seen.Sub(j.Finished)))
		verdicts = append(verdicts, ms(r.seen.Sub(r.due)))
		polls += float64(r.polls)
		// The latency from due time, cut at the layer boundaries.
		for _, d := range []time.Duration{r.sent.Sub(r.due), j.Submitted.Sub(r.sent), j.Started.Sub(j.Submitted),
			j.Finished.Sub(j.Started), r.seen.Sub(j.Finished)} {
			parts += ms(max(0, d))
		}
	}
	for _, d := range lists {
		listMs = append(listMs, ms(d))
	}
	n := float64(len(verdicts))
	return []metric{
		{"service.submit_ms_p50", quantile(submitMs, 0.5), "ms"},
		{"service.submit_ms_p99", quantile(submitMs, 0.99), "ms"},
		{"service.queue_wait_ms_p50", quantile(waitMs, 0.5), "ms"},
		{"service.queue_wait_ms_p99", quantile(waitMs, 0.99), "ms"},
		{"service.run_ms_p50", quantile(runMs, 0.5), "ms"},
		{"service.notify_ms_p50", quantile(notifyMs, 0.5), "ms"},
		{"service.polls_per_job", ratio(polls, n), "count"},
		{"service.list_ms_p50", quantile(listMs, 0.5), "ms"},
		{"service.rejected_frac", ratio(rejected, float64(len(recs))), "ratio"},
	}, ratio(parts, sum(verdicts))
}
