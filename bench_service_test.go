package repro_test

// Service-throughput benchmark for the slxd exploration daemon: small
// exhaustive check jobs pushed through the full HTTP → queue → worker
// pool → results store path, with a bounded number in flight so the
// pool pipeline stays busy. The jobs/sec figure is wall clock and
// informational (too noisy at CI's -benchtime 2x to compare); B/op and
// allocs/op are gated at 1.5× BENCH_explore.json's "service" baseline
// by cmd/benchtrend. The correctness half of the service —
// report parity with in-process checkers — is gated by the tests in
// internal/service.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/service"
	"repro/slx"
)

// benchServiceInFlight bounds the submitted-but-unfinished window, deep
// enough to keep every pool worker busy.
const benchServiceInFlight = 32

// BenchmarkServiceThroughput measures end-to-end jobs/sec for depth-5
// consensus checks against a 4-worker daemon. Each timed job costs one
// submit and one fetch of its finished record over HTTP and nothing
// else: completion is read off the daemon's JobsDone counter rather
// than by polling, so B/op and allocs/op do not depend on how many
// polls a job happened to take.
func BenchmarkServiceThroughput(b *testing.B) {
	srv, err := service.NewServer(service.Config{Workers: 4, Queue: 2 * benchServiceInFlight})
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	spec, err := json.Marshal(service.JobSpec{Target: "consensus", Spec: slx.Spec{Depth: 5}})
	if err != nil {
		b.Fatal(err)
	}
	client := hs.Client()
	m := srv.Metrics()

	submit := func() string {
		resp, err := client.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(spec))
		if err != nil {
			b.Fatal(err)
		}
		var j service.Job
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			b.Fatalf("submit: status %d", resp.StatusCode)
		}
		return j.ID
	}
	// awaitDone waits until n jobs have finished with verdicts. A failed
	// or cancelled job never counts as done, so either ends the run.
	awaitDone := func(n int) {
		for m.JobsDone.Load() < int64(n) {
			if bad := m.JobsFailed.Load() + m.JobsCancelled.Load(); bad > 0 {
				b.Fatalf("%d jobs failed or were cancelled", bad)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	fetch := func(id string) {
		resp, err := client.Get(hs.URL + "/v1/jobs/" + id)
		if err != nil {
			b.Fatal(err)
		}
		var j service.Job
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if j.State != service.StateDone {
			b.Fatalf("job %s: %s (%s)", id, j.State, j.Error)
		}
	}

	// batch pushes n jobs through the daemon with fewer than
	// benchServiceInFlight unfinished before each submit, then fetches
	// each finished record once.
	total := 0
	batch := func(n int) {
		ids := make([]string, n)
		for i := range ids {
			awaitDone(total + i + 1 - benchServiceInFlight)
			ids[i] = submit()
		}
		total += n
		awaitDone(total)
		for _, id := range ids {
			fetch(id)
		}
	}

	// A warm-up window opens the client connection and warms every
	// worker's pooled state, so the timed jobs pay for neither (after a
	// single warm-up job, -benchtime 2x runs read either ~56k or ~72k
	// B/op).
	batch(benchServiceInFlight)
	b.ReportAllocs()
	b.ResetTimer()
	batch(b.N)
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "jobs/sec")
	}
	// The store now holds the warm-up and b.N timed jobs; sanity-check
	// the count so a silently dropped job cannot inflate the figure.
	if done := m.JobsDone.Load(); done != int64(total) {
		b.Fatalf("daemon finished %d jobs, submitted %d", done, total)
	}
}
