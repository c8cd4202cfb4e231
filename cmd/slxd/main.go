// Command slxd is the exploration service daemon: it accepts check jobs
// over HTTP/JSON, runs them on a bounded worker pool where each worker
// drives an ordinary slx.Checker, and stores the resulting reports —
// including replayable witness schedules and failing seeds — in a
// results store with an optional JSON-file spill. With -spill, every
// accepted job is recorded before its 202 answer, so a daemon restarted
// on the same directory after a crash runs again the jobs it had not
// finished and never reuses a job ID.
//
// Usage:
//
//	slxd [-addr :8321] [-workers 4] [-queue 64] [-spill dir] [-drain 30s]
//
// API:
//
//	POST   /v1/jobs       submit a job (see internal/service.JobSpec)
//	GET    /v1/jobs       list jobs
//	GET    /v1/jobs/{id}  one job with its result
//	DELETE /v1/jobs/{id}  cancel (partial, interrupted result is kept)
//	GET    /v1/targets    registered check targets
//	GET    /healthz       liveness
//	GET    /readyz        readiness (503 while draining)
//	GET    /metrics       Prometheus text format
//
// SIGINT/SIGTERM drains gracefully: submits stop, queued and running
// jobs finish, then the process exits. Jobs still running when -drain
// expires are cancelled and store partial, Interrupted results.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "slxd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("slxd", flag.ContinueOnError)
	addr := fs.String("addr", ":8321", "listen address")
	workers := fs.Int("workers", 4, "worker pool size")
	queue := fs.Int("queue", 64, "job queue capacity")
	spill := fs.String("spill", "", "record accepted and finished jobs as job-<id>.json files in this directory")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown deadline before running jobs are cancelled")
	if err := fs.Parse(args); err != nil {
		return err
	}

	srv, err := service.NewServer(service.Config{Workers: *workers, Queue: *queue, SpillDir: *spill})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Printf("slxd: listening on %s (%d workers, queue %d)\n", ln.Addr(), *workers, *queue)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills hard

	fmt.Printf("slxd: draining (deadline %s)\n", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Println("slxd: drain deadline exceeded; running jobs cancelled, partial results stored")
	}
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	if err := httpSrv.Shutdown(httpCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Println("slxd: bye")
	return nil
}
