package main

// The slxd client half of the CLI: `slx submit` posts a check job to a
// running daemon and `slx status` polls it. Submit registers the very
// flags `slx explore` does (exploreFlags), because a JobSpec is the
// JSON form of the same checker options: the daemon's report for a spec
// equals the in-process report `slx explore` prints for the same flags.

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/service"
)

const defaultAddr = "http://127.0.0.1:8321"

func cmdSubmit(args []string) error {
	fs := newFlagSet("submit")
	addr := fs.String("addr", defaultAddr, "slxd base URL")
	wait := fs.Bool("wait", false, "poll until the job is terminal and print its result")
	interval := fs.Duration("interval", 200*time.Millisecond, "poll interval (with -wait)")
	sharedCache := fs.Bool("shared-cache", false, "share the daemon's visited tier for this target (needs -cache)")
	jobSpec := exploreFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec := jobSpec()
	spec.SharedCache = *sharedCache
	var job service.Job
	if err := apiCall(http.MethodPost, *addr+"/v1/jobs", spec, &job); err != nil {
		return err
	}
	fmt.Printf("submitted %s (%s, %s)\n", job.ID, job.Spec.Target, job.Spec.Mode)
	if !*wait {
		fmt.Printf("poll with: slx status -addr %s %s\n", *addr, job.ID)
		return nil
	}
	for !terminalState(job.State) {
		time.Sleep(*interval)
		if err := apiCall(http.MethodGet, *addr+"/v1/jobs/"+job.ID, nil, &job); err != nil {
			return err
		}
	}
	printJob(job)
	if job.State == service.StateFailed {
		return fmt.Errorf("job %s failed: %s", job.ID, job.Error)
	}
	if job.Result != nil && !job.Result.OK {
		return fmt.Errorf("violation found by %s", job.ID)
	}
	return nil
}

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ContinueOnError)
	addr := fs.String("addr", defaultAddr, "slxd base URL")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 1 {
		return fmt.Errorf("usage: slx status [-addr url] [job-id]")
	}
	if fs.NArg() == 1 {
		var job service.Job
		if err := apiCall(http.MethodGet, *addr+"/v1/jobs/"+fs.Arg(0), nil, &job); err != nil {
			return err
		}
		printJob(job)
		return nil
	}
	var jobs []service.Job
	if err := apiCall(http.MethodGet, *addr+"/v1/jobs", nil, &jobs); err != nil {
		return err
	}
	if len(jobs) == 0 {
		fmt.Println("no jobs")
		return nil
	}
	fmt.Printf("%-8s %-12s %-10s %-10s %s\n", "id", "target", "mode", "state", "result")
	for _, j := range jobs {
		res := ""
		switch {
		case j.Error != "" && j.Result == nil:
			res = j.Error
		case j.Result != nil && j.Result.OK && !j.Result.Interrupted:
			res = "ok"
		case j.Result != nil && j.Result.Interrupted:
			res = "interrupted (partial)"
		case j.Result != nil:
			res = "VIOLATION"
		}
		fmt.Printf("%-8s %-12s %-10s %-10s %s\n", j.ID, j.Spec.Target, j.Spec.Mode, j.State, res)
	}
	return nil
}

// printJob renders one job with its result details.
func printJob(j service.Job) {
	fmt.Printf("%s: %s (%s, %s)", j.ID, j.State, j.Spec.Target, j.Spec.Mode)
	if j.DurationMs > 0 {
		fmt.Printf(", %dms", j.DurationMs)
	}
	fmt.Println()
	if j.Error != "" {
		fmt.Printf("  error: %s\n", j.Error)
	}
	r := j.Result
	if r == nil {
		return
	}
	if r.Sampled {
		fmt.Printf("  schedules %d, distinct states %d", r.Schedules, r.DistinctStates)
		if r.FailingSeed != 0 {
			fmt.Printf(", failing seed %d", r.FailingSeed)
		}
	} else {
		fmt.Printf("  prefixes %d, sim steps %d", r.Prefixes, r.SimSteps)
		if r.CacheHits > 0 {
			fmt.Printf(", cache hits %d", r.CacheHits)
		}
	}
	if r.Interrupted {
		fmt.Printf(", interrupted")
	}
	fmt.Println()
	for _, v := range r.Verdicts {
		if v.Holds {
			fmt.Printf("  %s: PASS\n", v.Property)
		} else {
			fmt.Printf("  %s: FAIL (%s)\n", v.Property, v.Reason)
		}
	}
	if len(r.Witness) > 0 {
		w, _ := json.Marshal(r.Witness)
		fmt.Printf("  witness: %s\n", w)
	}
}

// terminalState mirrors the service's terminal-state set.
func terminalState(s string) bool {
	return s == service.StateDone || s == service.StateFailed || s == service.StateCancelled
}

// Retry tunables. A transient failure — the daemon not up yet, a
// connection reset, or an explicit 429/503 back-pressure response — is
// retried with full-jitter exponential backoff, capped per delay and in
// attempt count. Tests swap retrySleep and reseed retryRand to make the
// schedule deterministic and instant.
var (
	retryAttempts = 4
	retryBase     = 50 * time.Millisecond
	retryCap      = 1 * time.Second
	retrySleep    = time.Sleep
	retryRand     = rand.New(rand.NewSource(time.Now().UnixNano()))
)

// backoffDelay returns the full-jitter delay for 0-based attempt i:
// uniform in [0, min(cap, base<<i)]. Jitter spreads concurrent clients
// so a recovering daemon is not hit by a synchronized thundering herd.
func backoffDelay(i int) time.Duration {
	d := retryBase << uint(i)
	if d <= 0 || d > retryCap {
		d = retryCap
	}
	return time.Duration(retryRand.Int63n(int64(d) + 1))
}

// httpStatusError carries the daemon's non-2xx status so the retry loop
// can distinguish back-pressure (429, 503) from real rejections (400,
// 404), which must surface immediately.
type httpStatusError struct {
	code int
	msg  string
}

func (e *httpStatusError) Error() string { return e.msg }

// transientErr reports whether a failure is worth retrying: any
// transport-level error (connection refused while the daemon starts,
// reset mid-flight) or an explicit retry-me status. Everything else —
// bad spec, unknown job, JSON mismatch — is permanent.
func transientErr(err error) bool {
	var he *httpStatusError
	if errors.As(err, &he) {
		return he.code == http.StatusTooManyRequests || he.code == http.StatusServiceUnavailable
	}
	var ue *url.Error
	return errors.As(err, &ue)
}

// apiCall performs a JSON round-trip against the daemon, retrying
// transient failures; non-2xx responses surface the daemon's error
// message.
func apiCall(method, url string, in, out any) error {
	var payload []byte
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		payload = data
	}
	var err error
	for attempt := 0; ; attempt++ {
		err = apiOnce(method, url, payload, out)
		if err == nil || !transientErr(err) || attempt >= retryAttempts {
			return err
		}
		retrySleep(backoffDelay(attempt))
	}
}

// apiOnce is a single request/response exchange. The payload is a
// pre-marshalled body (nil for body-less methods) so every retry sends
// an identical request.
func apiOnce(method, url string, payload []byte, out any) error {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return &httpStatusError{code: resp.StatusCode, msg: fmt.Sprintf("%s: %s", resp.Status, e.Error)}
		}
		return &httpStatusError{code: resp.StatusCode, msg: fmt.Sprintf("%s: %s", resp.Status, strings.TrimSpace(string(data)))}
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}
