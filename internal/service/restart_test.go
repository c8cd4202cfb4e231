package service

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/slx"
)

// abandonedServer opens a 1-worker server on dir, holds its worker with
// a blocking loop, and submits specs, which therefore stay queued. The
// server is then left as a crashed daemon leaves it: no Shutdown runs
// while the test looks at dir. At cleanup its in-memory queue is
// emptied before the worker is released, so the abandoned pool never
// runs a job.
func abandonedServer(t *testing.T, dir string, queue int, specs []JobSpec) (*Server, []Job) {
	t.Helper()
	old, err := NewServer(Config{Workers: 1, Queue: queue, SpillDir: dir})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	release := make(chan struct{})
	old.boost <- func() { <-release }
	t.Cleanup(func() {
		for len(old.jobs) > 0 {
			<-old.jobs
		}
		close(release)
		_ = old.Shutdown(context.Background())
	})
	var jobs []Job
	for _, spec := range specs {
		j, status, err := old.Submit(spec)
		if err != nil {
			t.Fatalf("submit %+v: status %d, %v", spec, status, err)
		}
		jobs = append(jobs, j)
	}
	return old, jobs
}

// awaitTerminal polls the store until the job is terminal.
func awaitTerminal(t *testing.T, s *Server, id string) Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, ok := s.Store().Get(id)
		if !ok {
			t.Fatalf("job %s unknown to the restarted server", id)
		}
		if terminal(j.State) {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q", id, j.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRestartRerunsAcceptedJobs: jobs answered with 202 by a daemon that
// then died without Shutdown are run by the next daemon on the same
// spill directory, to the reports an in-process run gives, and their IDs
// are never handed out again. Before accepted jobs were recorded, the
// restarted daemon knew neither job and issued job-1 again, so a client
// still polling the old job-1 read another job's report.
func TestRestartRerunsAcceptedJobs(t *testing.T) {
	dir := t.TempDir()
	specs := []JobSpec{
		{Target: "consensus", Spec: slx.Spec{Depth: 6}},
		{Target: "lossyreg", Spec: slx.Spec{Depth: 8}},
	}
	_, accepted := abandonedServer(t, dir, 0, specs)
	for i, j := range accepted {
		if want := jobID(i + 1); j.ID != want {
			t.Fatalf("accepted job %d got ID %s, want %s", i, j.ID, want)
		}
	}

	s, err := NewServer(Config{Workers: 1, SpillDir: dir})
	if err != nil {
		t.Fatalf("NewServer on the abandoned directory: %v", err)
	}
	defer s.Shutdown(context.Background())
	for i, j := range accepted {
		got := awaitTerminal(t, s, j.ID)
		if got.State != StateDone {
			t.Fatalf("%s: state %q (error %q), want done", j.ID, got.State, got.Error)
		}
		c, prop, err := JobChecker(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Explore(prop)
		if err != nil {
			t.Fatal(err)
		}
		if want := NewResult(rep); !reflect.DeepEqual(got.Result, want) {
			t.Errorf("%s: restarted report %+v, in-process %+v", j.ID, got.Result, want)
		}
	}
	next, status, err := s.Submit(specs[0])
	if err != nil {
		t.Fatalf("submit after restart: status %d, %v", status, err)
	}
	if next.ID != jobID(3) {
		t.Fatalf("first job after the restart got %s, want %s", next.ID, jobID(3))
	}
	awaitTerminal(t, s, next.ID)
}

// TestRestartFailsJobsBeyondQueue: an admission the queue rolls back
// leaves no record behind, and a restarted daemon whose queue is too
// small for the jobs it finds queued fails the excess, naming the
// restart, instead of dropping them.
func TestRestartFailsJobsBeyondQueue(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Target: "consensus", Spec: slx.Spec{Depth: 6}}
	old, accepted := abandonedServer(t, dir, 2, []JobSpec{spec, spec})
	if _, status, _ := old.Submit(spec); status != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: status %d, want 429", status)
	}
	if _, err := os.Stat(filepath.Join(dir, jobID(3)+".json")); !os.IsNotExist(err) {
		t.Errorf("rolled-back admission left its record: %v", err)
	}

	s, err := NewServer(Config{Workers: 1, Queue: 1, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	if j := awaitTerminal(t, s, accepted[0].ID); j.State != StateDone {
		t.Errorf("%s: state %q, want done", j.ID, j.State)
	}
	j := awaitTerminal(t, s, accepted[1].ID)
	if j.State != StateFailed || !strings.Contains(j.Error, "restart") {
		t.Errorf("%s: state %q, error %q; want failed, naming the restart", j.ID, j.State, j.Error)
	}
}

func jobID(n int) string { return fmt.Sprintf("job-%d", n) }
