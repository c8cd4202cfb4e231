package service_test

// End-to-end tests of the slxd exploration service. The central claim
// is parity by construction: a job submitted over HTTP returns exactly
// the report an in-process slx.Checker produces for the same target and
// spec — same verdicts, same witness schedules, same deterministic
// counters — because the daemon runs each job through the normal
// Checker entry point and shards only via the executor-offer hooks.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
	"repro/slx"
)

// newTestServer starts a service plus an HTTP front end.
func newTestServer(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server) {
	t.Helper()
	srv, err := service.NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, hs
}

// doJSON round-trips one request; it returns the status code and decodes
// a 2xx body into out when non-nil.
func doJSON(t *testing.T, method, url string, in, out any) (int, string) {
	t.Helper()
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode/100 == 2 && out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s: %v", data, err)
		}
	}
	return resp.StatusCode, string(data)
}

// submit posts a job and requires admission.
func submit(t *testing.T, base string, spec service.JobSpec) service.Job {
	t.Helper()
	var j service.Job
	status, body := doJSON(t, http.MethodPost, base+"/v1/jobs", spec, &j)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", status, body)
	}
	return j
}

// await polls a job until it reaches a terminal state.
func await(t *testing.T, base, id string) service.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var j service.Job
		if status, body := doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, nil, &j); status != http.StatusOK {
			t.Fatalf("get %s: status %d, body %s", id, status, body)
		}
		switch j.State {
		case service.StateDone, service.StateFailed, service.StateCancelled:
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q", id, j.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// inProcess runs the same target+spec through a plain in-process
// checker, exactly as a client without a daemon would.
func inProcess(t *testing.T, spec service.JobSpec) *slx.Report {
	t.Helper()
	tgt, ok := service.LookupTarget(spec.Target)
	if !ok {
		t.Fatalf("unknown target %q", spec.Target)
	}
	rep, err := slx.New(append(tgt.Options(), spec.Options()...)...).Explore(tgt.Property())
	if err != nil {
		t.Fatalf("in-process explore: %v", err)
	}
	return rep
}

// requireParity compares a job's stored result against an in-process
// report field by field. Resims is excluded for multi-worker exhaustive
// runs (stolen-subtree seed replays depend on worker timing); every
// other compared counter is deterministic for the configurations the
// tests use.
func requireParity(t *testing.T, j service.Job, want *slx.Report, counterSet string) {
	t.Helper()
	if j.State != service.StateDone {
		t.Fatalf("job state %q (error %q), want done", j.State, j.Error)
	}
	got := j.Result
	if got == nil {
		t.Fatal("done job has no result")
	}
	if got.OK != want.OK() || got.Interrupted != want.Interrupted {
		t.Fatalf("ok/interrupted: got %v/%v, want %v/%v", got.OK, got.Interrupted, want.OK(), want.Interrupted)
	}
	counters := [][3]any{
		{"workers", got.Workers, want.Workers},
		{"schedules", got.Schedules, want.Schedules},
		{"distinct states", got.DistinctStates, want.DistinctStates},
		{"failing seed", int(got.FailingSeed), int(want.FailingSeed)},
	}
	switch counterSet {
	case "all":
		// Sequential (or sampling, which is worker-count independent):
		// every counter is deterministic.
		counters = append(counters, [3]any{"resims", got.Resims, want.Resims})
		fallthrough
	case "no-resims":
		// Clean multi-worker exhaustive: the explored set is the whole
		// tree, so everything but stolen-subtree re-simulation is
		// deterministic.
		counters = append(counters,
			[3]any{"prefixes", got.Prefixes, want.Prefixes},
			[3]any{"sim steps", got.SimSteps, want.SimSteps},
			[3]any{"event scans", got.EventScans, want.EventScans},
			[3]any{"pruned", got.Pruned, want.Pruned},
			[3]any{"cache hits", got.CacheHits, want.CacheHits})
	case "verdict-only":
		// Violating multi-worker exhaustive: how much work happens
		// before the preorder-least failure wins is timing-dependent,
		// but the verdict and witness are not.
	default:
		t.Fatalf("unknown counter set %q", counterSet)
	}
	for _, c := range counters {
		if c[1] != c[2] {
			t.Errorf("%s: daemon %v, in-process %v", c[0], c[1], c[2])
		}
	}
	if len(got.Verdicts) != len(want.Verdicts) {
		t.Fatalf("verdicts: daemon %d, in-process %d", len(got.Verdicts), len(want.Verdicts))
	}
	for i, v := range want.Verdicts {
		g := got.Verdicts[i]
		if g.Property != v.Property || g.Holds != v.Holds || g.Reason != v.Reason {
			t.Errorf("verdict %d: daemon %+v, in-process %+v", i, g, v)
		}
		if !reflect.DeepEqual(g.Witness, v.Witness) {
			t.Errorf("verdict %d witness: daemon %v, in-process %v", i, g.Witness, v.Witness)
		}
	}
	if !reflect.DeepEqual(got.Witness, want.Witness()) {
		t.Errorf("witness: daemon %v, in-process %v", got.Witness, want.Witness())
	}
}

// TestParityExhaustive: exhaustive jobs return the in-process report,
// counters included, across plain, POR+cache, and violating targets.
func TestParityExhaustive(t *testing.T) {
	_, hs := newTestServer(t, service.Config{Workers: 2})
	cases := map[string]service.JobSpec{
		"lossyreg/violation": {Target: "lossyreg", Spec: slx.Spec{Depth: 8}},
		"lossyreg/por-cache": {Target: "lossyreg", Spec: slx.Spec{Depth: 8, POR: true, Cache: true}},
		"consensus/clean":    {Target: "consensus", Spec: slx.Spec{Depth: 7, POR: true, Cache: true}},
	}
	for name, spec := range cases {
		spec := spec
		t.Run(name, func(t *testing.T) {
			j := await(t, hs.URL, submit(t, hs.URL, spec).ID)
			requireParity(t, j, inProcess(t, spec), "all")
		})
	}
}

// TestParityMultiWorker: with engine workers > 1 the extra loops are
// offered to the daemon pool; sampling counters are worker-count
// independent by design, clean exhaustive ones except Resims likewise,
// and a violating exhaustive run keeps its deterministic verdict and
// preorder-least witness.
func TestParityMultiWorker(t *testing.T) {
	_, hs := newTestServer(t, service.Config{Workers: 4})
	cases := map[string]struct {
		spec     service.JobSpec
		counters string
	}{
		"exhaustive/clean":     {service.JobSpec{Target: "consensus", Spec: slx.Spec{Depth: 7, Workers: 4}}, "no-resims"},
		"exhaustive/violation": {service.JobSpec{Target: "lossyreg", Spec: slx.Spec{Depth: 8, Workers: 4}}, "verdict-only"},
		"sample": {service.JobSpec{Target: "queueblast",
			Spec: slx.Spec{Sample: true, Schedules: 2000, D: 3, Depth: 24, Seed: 1, Workers: 4}}, "all"},
	}
	for name, tc := range cases {
		tc := tc
		t.Run(name, func(t *testing.T) {
			j := await(t, hs.URL, submit(t, hs.URL, tc.spec).ID)
			requireParity(t, j, inProcess(t, tc.spec), tc.counters)
		})
	}
}

// TestWitnessReplays: the witness schedule a sampled daemon job hands
// back replays in-process to the same failing verdict.
func TestWitnessReplays(t *testing.T) {
	_, hs := newTestServer(t, service.Config{Workers: 2})
	spec := service.JobSpec{Target: "queueblast",
		Spec: slx.Spec{Sample: true, Schedules: 2000, D: 3, Depth: 24, Seed: 1}}
	j := await(t, hs.URL, submit(t, hs.URL, spec).ID)
	if j.Result == nil || j.Result.OK || len(j.Result.Witness) == 0 {
		t.Fatalf("expected a violating result with witness, got %+v", j.Result)
	}
	tgt, _ := service.LookupTarget(spec.Target)
	rep, err := slx.New(append(tgt.Options(), slx.WithMaxSteps(len(j.Result.Witness)+1))...).
		Replay(j.Result.Witness, tgt.Property())
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rep.OK() {
		t.Fatalf("witness %v replayed clean", j.Result.Witness)
	}
	// The replay judge renders its reason slightly differently from the
	// exploration monitor ("event 16/16" vs "event 16"), so parity here
	// is on the failing property, not the message text.
	if want := j.Result.Verdicts[0]; rep.Verdicts[0].Property != want.Property {
		t.Errorf("replay failed %q, job failed %q", rep.Verdicts[0].Property, want.Property)
	}
}

// TestDurableQueueRecoveryJob: the crash–recovery showcase target. The
// roll-forward duplicate needs both budgets — a crash-only job is
// provably clean, a crash+recover job violates — and the daemon's
// witness (crash and recover decisions included) replays in-process to
// the same failing property.
func TestDurableQueueRecoveryJob(t *testing.T) {
	_, hs := newTestServer(t, service.Config{Workers: 2})

	clean := service.JobSpec{Target: "durablequeue", Spec: slx.Spec{Depth: 12, Crashes: 1}}
	j := await(t, hs.URL, submit(t, hs.URL, clean).ID)
	requireParity(t, j, inProcess(t, clean), "all")
	if !j.Result.OK {
		t.Fatalf("crash-only job must be clean: %+v", j.Result.Verdicts)
	}

	viol := service.JobSpec{Target: "durablequeue", Spec: slx.Spec{Depth: 12, Crashes: 1, Recoveries: 1}}
	j = await(t, hs.URL, submit(t, hs.URL, viol).ID)
	requireParity(t, j, inProcess(t, viol), "all")
	if j.Result.OK {
		t.Fatal("crash+recover job must find the roll-forward duplicate")
	}
	tgt, _ := service.LookupTarget(viol.Target)
	rep, err := slx.New(append(tgt.Options(), slx.WithMaxSteps(len(j.Result.Witness)+1))...).
		Replay(j.Result.Witness, tgt.Property())
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rep.OK() {
		t.Fatalf("witness %v replayed clean", j.Result.Witness)
	}
}

// TestValidationParity: a rejected spec gets HTTP 400 with exactly the
// message the in-process checker's validation produces. Raw bodies
// carrying a field JobSpec does not know — the retired batch mode among
// them — get a 400 naming the field, so an old client can never
// silently run a different mode.
func TestValidationParity(t *testing.T) {
	_, hs := newTestServer(t, service.Config{Workers: 1})
	inProcessMsg := func(spec service.JobSpec, extra ...slx.Option) string {
		tgt, ok := service.LookupTarget(spec.Target)
		if !ok {
			t.Fatalf("unknown target %q", spec.Target)
		}
		opts := append(tgt.Options(), spec.Options()...)
		opts = append(opts, extra...)
		err := slx.New(opts...).ValidateExplore(tgt.Property())
		if err == nil {
			t.Fatalf("spec %+v unexpectedly valid in-process", spec)
		}
		return err.Error()
	}
	unknown := func(field string) func() string {
		return func() string { return fmt.Sprintf("bad job spec: json: unknown field %q", field) }
	}
	cases := map[string]struct {
		spec any // a service.JobSpec, or a raw json.RawMessage body
		want func() string
	}{
		"sample+por": {
			spec: service.JobSpec{Target: "lossyreg", Spec: slx.Spec{Sample: true, Schedules: 100, D: 2, POR: true}},
			want: func() string {
				return inProcessMsg(service.JobSpec{Target: "lossyreg", Spec: slx.Spec{Sample: true, Schedules: 100, D: 2, POR: true}})
			},
		},
		"sample+batch": {
			spec: json.RawMessage(`{"target":"lossyreg","sample":true,"schedules":100,"batch":true}`),
			want: unknown("batch"),
		},
		"retired-batch": {
			spec: json.RawMessage(`{"target":"consensus","batch":true}`),
			want: unknown("batch"),
		},
		"unknown-field": {
			spec: json.RawMessage(`{"target":"consensus","depth":4,"breadth":3}`),
			want: unknown("breadth"),
		},
		"sample/no-schedules": {
			spec: service.JobSpec{Target: "consensus", Mode: "sample"},
			want: func() string {
				return inProcessMsg(service.JobSpec{Target: "consensus", Spec: slx.Spec{Sample: true}})
			},
		},
		"batch+cache": {
			spec: json.RawMessage(`{"target":"consensus","batch":true,"cache":true}`),
			want: unknown("batch"),
		},
		"shared-cache/no-cache": {
			spec: service.JobSpec{Target: "consensus", SharedCache: true},
			want: func() string {
				return inProcessMsg(service.JobSpec{Target: "consensus"}, slx.WithVisitedTier(slx.NewVisitedTier()))
			},
		},
		"negative-workers": {
			spec: service.JobSpec{Target: "consensus", Spec: slx.Spec{Workers: -2}},
			want: func() string {
				return inProcessMsg(service.JobSpec{Target: "consensus", Spec: slx.Spec{Workers: -2}})
			},
		},
		"negative-depth": {
			spec: service.JobSpec{Target: "consensus", Spec: slx.Spec{Depth: -3}},
			want: func() string {
				return inProcessMsg(service.JobSpec{Target: "consensus", Spec: slx.Spec{Depth: -3}})
			},
		},
		"negative-crashes": {
			spec: service.JobSpec{Target: "consensus", Spec: slx.Spec{Crashes: -1}},
			want: func() string {
				return inProcessMsg(service.JobSpec{Target: "consensus", Spec: slx.Spec{Crashes: -1}})
			},
		},
		"negative-procs": {
			spec: service.JobSpec{Target: "consensus", Spec: slx.Spec{Procs: -1}},
			want: func() string {
				return inProcessMsg(service.JobSpec{Target: "consensus", Spec: slx.Spec{Procs: -1}})
			},
		},
		"negative-recoveries": {
			spec: service.JobSpec{Target: "consensus", Spec: slx.Spec{Recoveries: -1}},
			want: func() string {
				return inProcessMsg(service.JobSpec{Target: "consensus", Spec: slx.Spec{Recoveries: -1}})
			},
		},
		"negative-timeout": {
			spec: service.JobSpec{Target: "consensus", Spec: slx.Spec{TimeoutMs: -5}},
			want: func() string {
				return inProcessMsg(service.JobSpec{Target: "consensus", Spec: slx.Spec{TimeoutMs: -5}})
			},
		},
		// Sampling budgets above the depth, which the strategy cannot
		// use: admitted, the first would kill the daemon sizing the
		// strategy's change points.
		"sample/huge-d": {
			spec: json.RawMessage(`{"target":"consensus","mode":"sample","schedules":1,"d":4611686018427387904,"depth":4}`),
			want: func() string {
				return inProcessMsg(service.JobSpec{Target: "consensus", Spec: slx.Spec{Sample: true, Schedules: 1, D: 1 << 62, Depth: 4}})
			},
		},
		"sample/crashes-above-depth": {
			spec: service.JobSpec{Target: "consensus", Mode: "sample", Spec: slx.Spec{Schedules: 1, Crashes: 5, Depth: 4}},
			want: func() string {
				return inProcessMsg(service.JobSpec{Target: "consensus", Spec: slx.Spec{Sample: true, Schedules: 1, Crashes: 5, Depth: 4}})
			},
		},
		"sample/recoveries-above-depth": {
			spec: service.JobSpec{Target: "consensus", Mode: "sample", Spec: slx.Spec{Schedules: 1, Crashes: 1, Recoveries: 5, Depth: 4}},
			want: func() string {
				return inProcessMsg(service.JobSpec{Target: "consensus", Spec: slx.Spec{Sample: true, Schedules: 1, Crashes: 1, Recoveries: 5, Depth: 4}})
			},
		},
		"unknown-target": {
			spec: service.JobSpec{Target: "nosuch"},
			want: func() string {
				return fmt.Sprintf("unknown target %q (targets: %s)", "nosuch", strings.Join(service.TargetNames(), ", "))
			},
		},
		"contradictory-mode": {
			spec: service.JobSpec{Target: "consensus", Mode: "exhaustive", Spec: slx.Spec{Sample: true, Schedules: 10}},
			want: func() string { return `mode "exhaustive" contradicts "sample": true` },
		},
		// A target is built for a fixed process count: more processes
		// would only sit idle, and fewer would drop scripted work.
		"procs-more": {
			spec: service.JobSpec{Target: "consensus", Spec: slx.Spec{Procs: 3}},
			want: func() string { return `procs: target "consensus" is built for 2 processes, got 3` },
		},
		"procs-fewer": {
			spec: service.JobSpec{Target: "queueblast", Spec: slx.Spec{Procs: 4}},
			want: func() string { return `procs: target "queueblast" is built for 8 processes, got 4` },
		},
	}
	for name, tc := range cases {
		tc := tc
		t.Run(name, func(t *testing.T) {
			status, body := doJSON(t, http.MethodPost, hs.URL+"/v1/jobs", tc.spec, nil)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %s)", status, body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal([]byte(body), &e); err != nil {
				t.Fatalf("error body %q: %v", body, err)
			}
			if want := tc.want(); e.Error != want {
				t.Errorf("message:\n  daemon:     %q\n  in-process: %q", e.Error, want)
			}
		})
	}
}

// TestConcurrentJobs pushes more jobs than pool slots through a small
// pool, mixing modes and engine worker counts, and requires every job
// to finish with the right verdict. Run under -race this is the
// concurrency certification of the queue, the offers, and the store.
func TestConcurrentJobs(t *testing.T) {
	_, hs := newTestServer(t, service.Config{Workers: 2, Queue: 32})
	specs := []service.JobSpec{
		{Target: "lossyreg", Spec: slx.Spec{Depth: 8}},
		{Target: "consensus", Spec: slx.Spec{Depth: 6}},
		{Target: "lossyreg", Spec: slx.Spec{Depth: 8, Workers: 4}},
		{Target: "consensus", Spec: slx.Spec{Depth: 6, POR: true, Cache: true}},
		{Target: "queueblast", Spec: slx.Spec{Sample: true, Schedules: 1000, D: 3, Depth: 24, Seed: 1, Workers: 4}},
		{Target: "consensus", Spec: slx.Spec{Sample: true, Schedules: 500, D: 3, Depth: 8, Seed: 5}},
		{Target: "lossyreg", Spec: slx.Spec{Sample: true, Schedules: 500, D: 2, Depth: 10, Seed: 1}},
		{Target: "consensus", Spec: slx.Spec{Depth: 7, Workers: 2}},
	}
	wantOK := []bool{false, true, false, true, false, true, false, true}
	ids := make([]string, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		i, spec := i, spec
		wg.Add(1)
		go func() {
			defer wg.Done()
			var j service.Job
			status, body := doJSON(t, http.MethodPost, hs.URL+"/v1/jobs", spec, &j)
			if status != http.StatusAccepted {
				t.Errorf("job %d: status %d body %s", i, status, body)
				return
			}
			ids[i] = j.ID
		}()
	}
	wg.Wait()
	for i, id := range ids {
		if id == "" {
			continue
		}
		j := await(t, hs.URL, id)
		if j.State != service.StateDone {
			t.Errorf("job %d (%s): state %q error %q", i, id, j.State, j.Error)
			continue
		}
		if j.Result.OK != wantOK[i] {
			t.Errorf("job %d (%s %s): ok=%v, want %v", i, j.Spec.Target, j.Spec.Mode, j.Result.OK, wantOK[i])
		}
	}
}

// TestCancelRunning: DELETE on a running job stops it and stores the
// partial, Interrupted result.
func TestCancelRunning(t *testing.T) {
	_, hs := newTestServer(t, service.Config{Workers: 1})
	// Exhaustive queueblast above depth 10 is astronomically larger
	// than any test budget: the job can only end by cancellation.
	j := submit(t, hs.URL, service.JobSpec{Target: "queueblast", Spec: slx.Spec{Depth: 12}})
	waitState(t, hs.URL, j.ID, service.StateRunning)
	if status, body := doJSON(t, http.MethodDelete, hs.URL+"/v1/jobs/"+j.ID, nil, nil); status != http.StatusOK {
		t.Fatalf("cancel: status %d body %s", status, body)
	}
	got := await(t, hs.URL, j.ID)
	if got.State != service.StateCancelled {
		t.Fatalf("state %q, want cancelled (error %q)", got.State, got.Error)
	}
	if got.Result == nil || !got.Result.Interrupted {
		t.Fatalf("cancelled job should store a partial Interrupted result, got %+v", got.Result)
	}
	if got.Result.Prefixes == 0 {
		t.Error("partial result reports zero explored prefixes")
	}
	if len(got.Result.Verdicts) != 0 {
		t.Errorf("partial exploration must not claim verdicts, got %v", got.Result.Verdicts)
	}
}

// TestJobTimeout: a job's wall-clock budget (spec timeout_ms →
// slx.WithTimeout) cuts it off the same way a DELETE does.
func TestJobTimeout(t *testing.T) {
	_, hs := newTestServer(t, service.Config{Workers: 1})
	j := submit(t, hs.URL, service.JobSpec{Target: "queueblast", Spec: slx.Spec{Depth: 12, TimeoutMs: 150}})
	got := await(t, hs.URL, j.ID)
	if got.State != service.StateCancelled {
		t.Fatalf("state %q, want cancelled (error %q)", got.State, got.Error)
	}
	if !strings.Contains(got.Error, "deadline") {
		t.Errorf("error %q should name the deadline", got.Error)
	}
	if got.Result == nil || !got.Result.Interrupted || got.Result.Prefixes == 0 {
		t.Fatalf("want partial Interrupted result with progress, got %+v", got.Result)
	}
}

// TestCancelQueued: DELETE on a still-queued job goes terminal without
// running.
func TestCancelQueued(t *testing.T) {
	srv, hs := newTestServer(t, service.Config{Workers: 1, Queue: 4})
	blocker := submit(t, hs.URL, service.JobSpec{Target: "queueblast", Spec: slx.Spec{Depth: 12}})
	waitState(t, hs.URL, blocker.ID, service.StateRunning)
	queued := submit(t, hs.URL, service.JobSpec{Target: "consensus", Spec: slx.Spec{Depth: 6}})
	if status, _ := doJSON(t, http.MethodDelete, hs.URL+"/v1/jobs/"+queued.ID, nil, nil); status != http.StatusOK {
		t.Fatalf("cancel queued: status %d", status)
	}
	got, _ := srv.Store().Get(queued.ID)
	if got.State != service.StateCancelled || got.Result != nil {
		t.Fatalf("queued job after cancel: state %q result %+v", got.State, got.Result)
	}
	doJSON(t, http.MethodDelete, hs.URL+"/v1/jobs/"+blocker.ID, nil, nil)
	await(t, hs.URL, blocker.ID)
}

// TestQueueFull: admissions beyond the queue capacity get 429 and leave
// no ghost job behind.
func TestQueueFull(t *testing.T) {
	_, hs := newTestServer(t, service.Config{Workers: 1, Queue: 1})
	blocker := submit(t, hs.URL, service.JobSpec{Target: "queueblast", Spec: slx.Spec{Depth: 12}})
	waitState(t, hs.URL, blocker.ID, service.StateRunning)
	queued := submit(t, hs.URL, service.JobSpec{Target: "consensus", Spec: slx.Spec{Depth: 6}})
	status, body := doJSON(t, http.MethodPost, hs.URL+"/v1/jobs", service.JobSpec{Target: "consensus", Spec: slx.Spec{Depth: 6}}, nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: status %d body %s", status, body)
	}
	var jobs []service.Job
	doJSON(t, http.MethodGet, hs.URL+"/v1/jobs", nil, &jobs)
	if len(jobs) != 2 {
		t.Errorf("rejected submit left a ghost job: %d jobs listed", len(jobs))
	}
	doJSON(t, http.MethodDelete, hs.URL+"/v1/jobs/"+queued.ID, nil, nil)
	doJSON(t, http.MethodDelete, hs.URL+"/v1/jobs/"+blocker.ID, nil, nil)
	await(t, hs.URL, blocker.ID)
}

// TestShutdownDrains: a generous shutdown runs every queued job to
// completion before returning; submits during the drain get 503.
func TestShutdownDrains(t *testing.T) {
	srv, err := service.NewServer(service.Config{Workers: 1, Queue: 8})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		j, status, err := srv.Submit(service.JobSpec{Target: "consensus", Spec: slx.Spec{Depth: 6}})
		if err != nil {
			t.Fatalf("submit %d: status %d, %v", i, status, err)
		}
		ids = append(ids, j.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		j, _ := srv.Store().Get(id)
		if j.State != service.StateDone {
			t.Errorf("job %s: state %q after drain, want done", id, j.State)
		}
	}
	if _, status, err := srv.Submit(service.JobSpec{Target: "consensus", Spec: slx.Spec{Depth: 6}}); status != http.StatusServiceUnavailable {
		t.Errorf("submit after shutdown: status %d err %v, want 503", status, err)
	}
}

// TestShutdownDeadline: when the drain deadline passes, running jobs
// are cancelled, their partial results stored, and Shutdown returns.
func TestShutdownDeadline(t *testing.T) {
	srv, err := service.NewServer(service.Config{Workers: 1, Queue: 8})
	if err != nil {
		t.Fatal(err)
	}
	j, status, err := srv.Submit(service.JobSpec{Target: "queueblast", Spec: slx.Spec{Depth: 12}})
	if err != nil {
		t.Fatalf("submit: status %d, %v", status, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if cur, _ := srv.Store().Get(j.ID); cur.State == service.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown: %v, want deadline exceeded", err)
	}
	got, _ := srv.Store().Get(j.ID)
	if got.State != service.StateCancelled || got.Result == nil || !got.Result.Interrupted {
		t.Fatalf("after hard drain: state %q result %+v", got.State, got.Result)
	}
}

// TestSharedCacheTier: a second exhaustive job on the same target with
// shared_cache hits the tier the first one filled, and still reports
// the same verdict.
func TestSharedCacheTier(t *testing.T) {
	_, hs := newTestServer(t, service.Config{Workers: 1})
	spec := service.JobSpec{Target: "consensus", Spec: slx.Spec{Depth: 8, Cache: true}, SharedCache: true}
	a := await(t, hs.URL, submit(t, hs.URL, spec).ID)
	b := await(t, hs.URL, submit(t, hs.URL, spec).ID)
	if a.State != service.StateDone || b.State != service.StateDone {
		t.Fatalf("states %q/%q", a.State, b.State)
	}
	if b.Result.CacheHits == 0 {
		t.Error("second job should hit the shared visited tier")
	}
	if b.Result.Prefixes >= a.Result.Prefixes {
		t.Errorf("second job explored %d prefixes, first %d: tier saved nothing", b.Result.Prefixes, a.Result.Prefixes)
	}
	if a.Result.OK != b.Result.OK || len(a.Result.Verdicts) != len(b.Result.Verdicts) {
		t.Errorf("verdicts diverge under shared tier: %+v vs %+v", a.Result.Verdicts, b.Result.Verdicts)
	}
}

// TestSpillReload: terminal jobs written to the spill directory are
// served again by a restarted daemon, and new IDs do not collide.
func TestSpillReload(t *testing.T) {
	dir := t.TempDir()
	srv1, hs1 := newTestServer(t, service.Config{Workers: 1, SpillDir: dir})
	spec := service.JobSpec{Target: "lossyreg", Spec: slx.Spec{Depth: 8}}
	first := await(t, hs1.URL, submit(t, hs1.URL, spec).ID)
	hs1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = srv1.Shutdown(ctx)

	_, hs2 := newTestServer(t, service.Config{Workers: 1, SpillDir: dir})
	var reloaded service.Job
	if status, body := doJSON(t, http.MethodGet, hs2.URL+"/v1/jobs/"+first.ID, nil, &reloaded); status != http.StatusOK {
		t.Fatalf("reloaded get: status %d body %s", status, body)
	}
	if reloaded.State != service.StateDone || !reflect.DeepEqual(reloaded.Result, first.Result) {
		t.Fatalf("reloaded job diverges: %+v vs %+v", reloaded, first)
	}
	second := submit(t, hs2.URL, spec)
	if second.ID == first.ID {
		t.Fatalf("restarted daemon reused job ID %s", second.ID)
	}
	await(t, hs2.URL, second.ID)
}

// TestSpillReloadToleratesCorruptRecords: a daemon killed mid-spill can
// leave truncated, garbage or torn files behind; the next start skips
// them with a warning, serves every intact record, and never hands out
// a job ID that would resurrect a skipped file.
func TestSpillReloadToleratesCorruptRecords(t *testing.T) {
	dir := t.TempDir()
	srv1, hs1 := newTestServer(t, service.Config{Workers: 1, SpillDir: dir})
	spec := service.JobSpec{Target: "consensus", Spec: slx.Spec{Depth: 6}}
	first := await(t, hs1.URL, submit(t, hs1.URL, spec).ID)
	hs1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = srv1.Shutdown(ctx)

	// Sabotage the directory the way a crash would: a truncated record,
	// pure garbage, an empty file, a record with no job ID, and a torn
	// .tmp from an interrupted write-then-rename.
	intact, err := os.ReadFile(filepath.Join(dir, first.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := map[string][]byte{
		"job-7.json":     intact[:len(intact)/2],
		"job-8.json":     []byte("not json at all"),
		"job-9.json":     nil,
		"job-10.json":    []byte(`{"state":"done"}`),
		"job-4.json.tmp": intact,
	}
	for name, data := range corrupt {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	srv2, hs2 := newTestServer(t, service.Config{Workers: 1, SpillDir: dir})
	var reloaded service.Job
	if status, body := doJSON(t, http.MethodGet, hs2.URL+"/v1/jobs/"+first.ID, nil, &reloaded); status != http.StatusOK {
		t.Fatalf("intact record lost behind corrupt neighbours: status %d body %s", status, body)
	}
	if !reflect.DeepEqual(reloaded.Result, first.Result) {
		t.Fatalf("reloaded job diverges: %+v vs %+v", reloaded, first)
	}
	skipped := srv2.Store().SkippedSpills()
	if len(skipped) != 4 {
		t.Fatalf("skipped %v, want the 4 corrupt records", skipped)
	}
	// The corrupt ordinals are burned: the next job must start past
	// job-10, and the torn .tmp must be gone.
	next := submit(t, hs2.URL, spec)
	for name := range corrupt {
		if next.ID+".json" == name {
			t.Fatalf("new job %s resurrects a skipped record", next.ID)
		}
	}
	if got := jobOrdinalTest(next.ID); got <= 10 {
		t.Fatalf("new job ordinal %d, want > 10 (corrupt IDs burned)", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "job-4.json.tmp")); !os.IsNotExist(err) {
		t.Errorf("torn .tmp survived reload: %v", err)
	}
	await(t, hs2.URL, next.ID)
}

// jobOrdinalTest mirrors the store's ID ordering helper.
func jobOrdinalTest(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	return n
}

// TestProductionSurface: healthz, readyz, metrics and the target
// listing respond sensibly.
func TestProductionSurface(t *testing.T) {
	srv, hs := newTestServer(t, service.Config{Workers: 1})
	await(t, hs.URL, submit(t, hs.URL, service.JobSpec{Target: "consensus", Spec: slx.Spec{Depth: 6}}).ID)

	for _, path := range []string{"/healthz", "/readyz"} {
		if status, _ := doJSON(t, http.MethodGet, hs.URL+path, nil, nil); status != http.StatusOK {
			t.Errorf("%s: status %d", path, status)
		}
	}
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"slxd_jobs_done_total 1",
		"slxd_jobs_queued 0",
		"slxd_prefixes_explored_total",
		"slxd_job_duration_seconds_bucket{le=\"+Inf\"} 1",
		"slxd_job_duration_seconds_count 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	var targets []struct{ Name, About string }
	if status, body := doJSON(t, http.MethodGet, hs.URL+"/v1/targets", nil, &targets); status != http.StatusOK {
		t.Fatalf("targets: status %d body %s", status, body)
	}
	if len(targets) != len(service.TargetNames()) {
		t.Errorf("targets listed %d, registered %d", len(targets), len(service.TargetNames()))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
	if status, _ := doJSON(t, http.MethodGet, hs.URL+"/readyz", nil, nil); status != http.StatusServiceUnavailable {
		t.Errorf("readyz while drained: status %d, want 503", status)
	}
	if status, _ := doJSON(t, http.MethodGet, hs.URL+"/healthz", nil, nil); status != http.StatusOK {
		t.Errorf("healthz while drained: status %d, want 200", status)
	}
}

// waitState polls a job until it reaches the given (non-terminal)
// state.
func waitState(t *testing.T, base, id, state string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var j service.Job
		doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, nil, &j)
		if j.State == state {
			return
		}
		switch j.State {
		case service.StateDone, service.StateFailed, service.StateCancelled:
			t.Fatalf("job %s went terminal (%s) before reaching %q", id, j.State, state)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q waiting for %q", id, j.State, state)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
