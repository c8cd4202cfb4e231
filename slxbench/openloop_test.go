package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
	"repro/slx"
)

// fakeSlxd answers submits and polls like slxd, finishing every job at
// once, except that the stall-th submit blocks for stall.
type fakeSlxd struct {
	mu      sync.Mutex
	submits int
	stallAt int
	stall   time.Duration
	jobs    map[string]service.Job
}

func (f *fakeSlxd) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := time.Now()
	switch {
	case r.Method == http.MethodPost:
		f.submits++
		if f.submits == f.stallAt {
			f.mu.Unlock()
			time.Sleep(f.stall)
			f.mu.Lock()
		}
		var spec service.JobSpec
		_ = json.NewDecoder(r.Body).Decode(&spec)
		j := service.Job{ID: fmt.Sprintf("job-%d", f.submits), Spec: spec, State: service.StateQueued, Submitted: now}
		f.jobs[j.ID] = j
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(j)
	case r.URL.Path == "/v1/jobs" || r.URL.Path == "/metrics":
		_ = json.NewEncoder(w).Encode([]service.Job{})
	default:
		j := f.jobs[r.URL.Path[len("/v1/jobs/"):]]
		j.State, j.Started, j.Finished = service.StateDone, j.Submitted, now
		j.Result = &service.Result{OK: true, Prefixes: 1}
		_ = json.NewEncoder(w).Encode(j)
	}
}

func runFake(t *testing.T, stallAt int, stall time.Duration) ([]*slxdRecord, []metric) {
	t.Helper()
	f := &fakeSlxd{stallAt: stallAt, stall: stall, jobs: map[string]service.Job{}}
	srv := httptest.NewServer(f)
	defer srv.Close()
	specs := []service.JobSpec{{Target: "consensus", Spec: slx.Spec{Depth: 6}}}
	recs, _ := openLoop(srv.URL, specs, 100, 60, slxdPollGap)
	return recs, slxdMetrics(specs, recs)
}

func metricValue(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	return -1
}

// TestOpenLoopChargesStalls: a server that stalls once makes every job
// due during the stall late, and the open loop charges each of them the
// wait from its due time, so both the latency tail and the generator lag
// show the stall.
func TestOpenLoopChargesStalls(t *testing.T) {
	const stall = 250 * time.Millisecond
	_, calm := runFake(t, 0, 0)
	recs, stalled := runFake(t, 10, stall)

	// The 10th submit (job 9, due at 90 ms) blocks until ~340 ms: jobs
	// due in between cannot be sent before it returns.
	stallEnd := recs[9].accepted
	late := 0
	for _, r := range recs[10:] {
		if !r.due.Before(stallEnd) {
			break
		}
		late++
		if lat := r.seen.Sub(r.due); lat < stallEnd.Sub(r.due) {
			t.Errorf("job due %v before the stall ended measured %v: the wait was lost", stallEnd.Sub(r.due), lat)
		}
	}
	if late < 15 {
		t.Fatalf("only %d jobs fell due during the stall", late)
	}
	if lag := metricValue(stalled, "gen_lag_ms_p99"); lag < 100 || lag <= 10*metricValue(calm, "gen_lag_ms_p99") {
		t.Errorf("gen_lag_ms_p99 %.2f ms with a stall, %.2f ms without: the stall does not show", lag, metricValue(calm, "gen_lag_ms_p99"))
	}
	if p99 := metricValue(stalled, "verdict_ms_p99"); p99 < 100 {
		t.Errorf("verdict_ms_p99 %.2f ms does not show the %v stall", p99, stall)
	}
}
