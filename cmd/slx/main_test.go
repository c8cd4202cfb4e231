package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/slx"
)

// TestExploreExitCodes: dispatch returns an error (→ non-zero process
// exit in main) exactly when a violation is found, in both exhaustive
// and sampling modes.
func TestExploreExitCodes(t *testing.T) {
	cases := map[string]struct {
		args    []string
		wantErr bool
	}{
		"exhaustive/violation": {
			args:    []string{"explore", "-target", "lossyreg", "-depth", "8"},
			wantErr: true,
		},
		"exhaustive/clean": {
			args:    []string{"explore", "-target", "consensus", "-depth", "6"},
			wantErr: false,
		},
		"sample/violation": {
			args:    []string{"explore", "-target", "lossyreg", "-sample", "-schedules", "500", "-d", "2", "-depth", "10", "-seed", "1"},
			wantErr: true,
		},
		"sample/clean": {
			args:    []string{"explore", "-target", "consensus", "-sample", "-schedules", "200", "-d", "3", "-depth", "8", "-seed", "5"},
			wantErr: false,
		},
		"sample/walk-violation": {
			args:    []string{"explore", "-target", "lossyreg", "-sample", "-walk", "-schedules", "500", "-depth", "10", "-seed", "1"},
			wantErr: true,
		},
		"unknown-target": {
			args:    []string{"explore", "-target", "nosuch"},
			wantErr: true,
		},
	}
	for name, tc := range cases {
		tc := tc
		t.Run(name, func(t *testing.T) {
			err := dispatch(tc.args)
			if (err != nil) != tc.wantErr {
				t.Fatalf("dispatch(%v) err=%v, want error=%v", tc.args, err, tc.wantErr)
			}
		})
	}
}

// captureStdout runs f with os.Stdout redirected and returns what f
// printed along with its error.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	old := os.Stdout
	os.Stdout = w
	ferr := f()
	os.Stdout = old
	w.Close()
	return <-out, ferr
}

// TestExploreDepthLine: the clean-run line names the depth the
// exploration used. Under the Spec mapping a literal -depth 0 selects
// the checker default, depth 8, and the line must say so.
func TestExploreDepthLine(t *testing.T) {
	for _, tc := range []struct{ flag, want string }{
		{"0", "no violation up to depth 8\n"},
		{"6", "no violation up to depth 6\n"},
	} {
		out, err := captureStdout(t, func() error {
			return dispatch([]string{"explore", "-target", "consensus", "-depth", tc.flag})
		})
		if err != nil {
			t.Fatalf("-depth %s: %v", tc.flag, err)
		}
		if !strings.Contains(out, tc.want) {
			t.Errorf("-depth %s printed %q, want a line ending %q", tc.flag, out, tc.want)
		}
	}
}

// TestExploreProcs: a target runs only at the process count it is built
// for. Any other positive -procs is rejected with the message slxd
// answers the same spec with, and the target's own count explores the
// same tree as leaving -procs unset.
func TestExploreProcs(t *testing.T) {
	err := dispatch([]string{"explore", "-target", "consensus", "-depth", "8", "-procs", "3"})
	if want := `procs: target "consensus" is built for 2 processes, got 3`; err == nil || err.Error() != want {
		t.Fatalf("-procs 3: err %v, want %q", err, want)
	}
	for _, procs := range []string{"0", "2"} {
		out, err := captureStdout(t, func() error {
			return dispatch([]string{"explore", "-target", "consensus", "-depth", "8", "-procs", procs})
		})
		if err != nil {
			t.Fatalf("-procs %s: %v", procs, err)
		}
		if !strings.HasPrefix(out, "explored 511 schedule prefixes") {
			t.Errorf("-procs %s printed %q, want 511 prefixes", procs, out)
		}
	}
}

// TestExploreTimeout: -timeout cuts an exhaustive exploration short and
// maps to exit code 124 (the timeout(1) convention), distinct from the
// violation exit 1.
func TestExploreTimeout(t *testing.T) {
	// Exhaustive queueblast above depth 10 cannot finish in any test
	// budget, so the run can only end via the deadline.
	err := dispatch([]string{"explore", "-target", "queueblast", "-depth", "12", "-timeout", "150ms"})
	if err == nil {
		t.Fatal("timed-out exploration should report an error")
	}
	if code := exitCode(err); code != 124 {
		t.Fatalf("exit code %d (%v), want 124", code, err)
	}
}

// TestExploreInterrupted: cancelling the base context (what a SIGINT
// does through signal.NotifyContext) unwinds with a partial report and
// exit code 130, in both exploration modes.
func TestExploreInterrupted(t *testing.T) {
	cases := map[string][]string{
		"exhaustive": {"explore", "-target", "queueblast", "-depth", "12"},
		"sample":     {"explore", "-target", "consensus", "-sample", "-schedules", "2000000000", "-d", "3", "-depth", "8"},
	}
	for name, args := range cases {
		args := args
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			old := baseContext
			baseContext = ctx
			defer func() { baseContext = old }()
			go func() {
				time.Sleep(100 * time.Millisecond)
				cancel()
			}()
			err := dispatch(args)
			if err == nil {
				t.Fatal("interrupted exploration should report an error")
			}
			if code := exitCode(err); code != 130 {
				t.Fatalf("exit code %d (%v), want 130", code, err)
			}
		})
	}
}

// TestSubmitStatusRoundTrip drives the client subcommands against an
// in-process daemon: submit -wait returns the violation exit path and
// status renders both the listing and a single job.
func TestSubmitStatusRoundTrip(t *testing.T) {
	srv, err := service.NewServer(service.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	if err := dispatch([]string{"submit", "-addr", hs.URL, "-wait", "-target", "consensus", "-depth", "6"}); err != nil {
		t.Fatalf("clean submit -wait: %v", err)
	}
	if err := dispatch([]string{"submit", "-addr", hs.URL, "-wait", "-target", "lossyreg", "-depth", "8"}); err == nil {
		t.Fatal("violating submit -wait should exit non-zero")
	}
	// -sample alone runs on explore's sampling defaults, not a 400.
	if err := dispatch([]string{"submit", "-addr", hs.URL, "-wait", "-target", "consensus", "-depth", "6", "-sample"}); err != nil {
		t.Fatalf("clean sampled submit -wait: %v", err)
	}
	if err := dispatch([]string{"status", "-addr", hs.URL}); err != nil {
		t.Fatalf("status list: %v", err)
	}
	if err := dispatch([]string{"status", "-addr", hs.URL, "job-1"}); err != nil {
		t.Fatalf("status job-1: %v", err)
	}
	if err := dispatch([]string{"status", "-addr", hs.URL, "job-999"}); err == nil {
		t.Fatal("status for a missing job should fail")
	}
	// An invalid spec is rejected at submit time with the daemon's 400.
	if err := dispatch([]string{"submit", "-addr", hs.URL, "-target", "consensus", "-sample", "-por", "-schedules", "10"}); err == nil {
		t.Fatal("invalid spec should be rejected")
	}
}

// TestExploreNegativeBudgets: negative -crashes, -recoveries and
// -timeout reach validation and fail with ValidateExplore's message,
// instead of being dropped in favor of the defaults.
func TestExploreNegativeBudgets(t *testing.T) {
	tgt, _ := service.LookupTarget("consensus")
	for name, tc := range map[string]struct {
		args []string
		opt  slx.Option
	}{
		"crashes":    {[]string{"-crashes", "-1"}, slx.WithCrashes(-1)},
		"recoveries": {[]string{"-recoveries", "-1"}, slx.WithRecoveries(-1)},
		"timeout":    {[]string{"-timeout", "-1s"}, slx.WithTimeout(-time.Second)},
	} {
		want := slx.New(append(tgt.Options(), slx.WithDepth(4), tc.opt)...).ValidateExplore(tgt.Property())
		if want == nil {
			t.Fatalf("%s: in-process validation accepted the negative budget", name)
		}
		err := dispatch(append([]string{"explore", "-target", "consensus", "-depth", "4"}, tc.args...))
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%s: explore said %v, ValidateExplore says %q", name, err, want)
		}
	}
	// A negative budget below a millisecond still reaches validation.
	if err := dispatch([]string{"explore", "-target", "consensus", "-depth", "4", "-timeout", "-500us"}); err == nil || !strings.Contains(err.Error(), "timeout") {
		t.Errorf("sub-millisecond negative timeout: got %v, want the timeout validation error", err)
	}
}

// TestExploreSubmitShareFlags: explore and submit register the same
// exploration flags with the same defaults, submit adds only its daemon
// flags, and the retired -batch flag is unknown to both.
func TestExploreSubmitShareFlags(t *testing.T) {
	sets := map[string]*flag.FlagSet{}
	old := newFlagSet
	newFlagSet = func(name string) *flag.FlagSet {
		fs := old(name)
		fs.SetOutput(io.Discard)
		sets[name] = fs
		return fs
	}
	defer func() { newFlagSet = old }()
	for _, cmd := range []string{"explore", "submit"} {
		if err := dispatch([]string{cmd, "-h"}); !errors.Is(err, flag.ErrHelp) {
			t.Fatalf("%s -h: %v", cmd, err)
		}
		if err := dispatch([]string{cmd, "-batch"}); err == nil || !strings.Contains(err.Error(), "not defined: -batch") {
			t.Errorf("%s -batch: got %v, want an unknown-flag error", cmd, err)
		}
	}
	defaults := func(fs *flag.FlagSet) map[string]string {
		m := map[string]string{}
		fs.VisitAll(func(f *flag.Flag) { m[f.Name] = f.DefValue })
		return m
	}
	explore, submit := defaults(sets["explore"]), defaults(sets["submit"])
	for _, only := range []string{"addr", "wait", "interval", "shared-cache"} {
		if _, ok := submit[only]; !ok {
			t.Errorf("submit lacks its -%s flag", only)
		}
		delete(submit, only)
	}
	if !reflect.DeepEqual(explore, submit) {
		t.Errorf("exploration flags differ:\n  explore: %v\n  submit:  %v", explore, submit)
	}
}
