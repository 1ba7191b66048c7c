// Command sizingd is the sizing-as-a-service daemon: an HTTP/JSON API
// over the statistical gate-sizing stack with admission control,
// per-job supervision (deadlines, checkpoints, watchdog, retry with
// degradation-ladder step-down) and crash recovery from a journal of
// accepted jobs.
//
//	sizingd -addr :8080 -state /var/lib/sizingd
//
// Submit a job and follow it:
//
//	curl -s -X POST localhost:8080/v1/jobs -d '{"circuit":"tree7","objective":"mu+3sigma"}'
//	curl -s localhost:8080/v1/jobs/job-000001
//	curl -s localhost:8080/v1/jobs/job-000001/result
//	curl -N localhost:8080/v1/jobs/job-000001/events
//
// SIGTERM/SIGINT drains: admission stops, running jobs get the drain
// timeout to finish, stragglers are cancelled at a checkpoint
// boundary and resume on the next start. SIGKILL loses nothing
// either — accepted jobs are journaled before the 202 and recovered
// at startup.
//
// Warm what-if sessions keep a circuit analyzed in memory between
// requests; repeat single-gate nudges run against the incremental
// engine instead of a fresh job:
//
//	curl -s -X POST localhost:8080/v1/sessions -d '{"id":"s1","circuit":"k2"}'
//	curl -s -X PATCH localhost:8080/v1/sessions/s1/sizes -d '{"sizes":{"g0":1.5}}'
//	curl -s -X POST localhost:8080/v1/sessions/s1/whatif -d '{"sizes":{"g1":2.0}}'
//	curl -s 'localhost:8080/v1/sessions/s1/timing?k=3&top=5'
//
// Three auxiliary modes drive an in-process daemon over loopback HTTP
// for CI, booting it with the flags above and a temporary state
// directory:
//
//	sizingd -smoke                                  boot, solve one job, drain
//	sizingd -loadtest -out BENCH_service.json       16 jobs, 4 clients, 3 kills
//	sizingd -sessionbench -out BENCH_session.json   warm vs cold latency on k2
//
// Each exits non-zero when its acceptance gate fails; the two benches
// still write their report.
package main

import (
	"context"
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
	var (
		addr          = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
		state         = flag.String("state", "sizingd-state", "state directory (journal + checkpoints)")
		pool          = flag.Int("pool", 2, "concurrent solves")
		queue         = flag.Int("queue", 16, "admission queue depth")
		retries       = flag.Int("retries", 2, "NumericalFailure retries per job")
		jobTimeout    = flag.Duration("job-timeout", 0, "per-job wall clock cap (0 = none)")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
		maxGates      = flag.Int("max-gates", 0, "reject circuits with more gates (0 = unlimited)")
		cancelOnStall = flag.Int("cancel-on-stall", 0, "cancel a job after this many watchdog stalls (0 = record only)")
		maxSessions   = flag.Int("max-sessions", 64, "what-if session roster limit")
		sessionBytes  = flag.Int64("session-bytes", 256<<20, "warm session engine memory budget (bytes)")
		sessionIdle   = flag.Duration("session-idle-timeout", 0, "evict warm session engines idle this long (0 = never)")
		loadtest      = flag.Bool("loadtest", false, "run the chaos load harness instead of serving")
		sessionbench  = flag.Bool("sessionbench", false, "run the warm-session vs cold-job latency harness")
		smoke         = flag.Bool("smoke", false, "boot, run one job end to end, drain, exit")
		out           = flag.String("out", "", "report path (default BENCH_service.json / BENCH_session.json)")
	)
	flag.Parse()

	opts := service.Options{
		StateDir:           *state,
		Pool:               *pool,
		QueueDepth:         *queue,
		MaxRetries:         *retries,
		JobTimeout:         *jobTimeout,
		DrainTimeout:       *drainTimeout,
		MaxGates:           *maxGates,
		CancelOnStall:      *cancelOnStall,
		MaxSessions:        *maxSessions,
		SessionBytes:       *sessionBytes,
		SessionIdleTimeout: *sessionIdle,
	}
	switch {
	case *smoke:
		_, err := service.RunLoadTest(opts, false)
		if err == nil {
			fmt.Println("sizingd: smoke ok")
		}
		os.Exit(exitStatus("smoke", err))
	case *loadtest:
		os.Exit(runLoadTest(opts, orDefault(*out, "BENCH_service.json")))
	case *sessionbench:
		os.Exit(runSessionBench(opts, orDefault(*out, "BENCH_session.json")))
	}
	os.Exit(runDaemon(*addr, opts))
}

// runDaemon serves until a signal drains it.
func runDaemon(addr string, opts service.Options) int {
	srv, err := service.New(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sizingd:", err)
		return 1
	}
	// The daemon owns the process-wide expvar namespace; auxiliary
	// modes and tests never publish (expvar panics on duplicates).
	srv.Metrics().Publish("sizingd")
	if rec := srv.Recovered(); len(rec) > 0 {
		fmt.Printf("sizingd: recovered %d job(s) from journal: %v\n", len(rec), rec)
	}
	if rec := srv.RecoveredSessions(); len(rec) > 0 {
		fmt.Printf("sizingd: recovered %d session(s) from journal: %v\n", len(rec), rec)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sizingd:", err)
		return 1
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	srv.Start()
	fmt.Printf("sizingd: serving on %s (state %s, pool %d, queue %d)\n",
		ln.Addr(), opts.StateDir, opts.Pool, opts.QueueDepth)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Println("sizingd: signal received, draining")
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "sizingd:", err)
		return 1
	}

	// Drain: stop admission, finish (or checkpoint) running jobs,
	// close the journal. Queued jobs stay journaled and recover on the
	// next start.
	drainCtx, cancel := context.WithTimeout(context.Background(), opts.DrainTimeout)
	defer cancel()
	httpSrv.Shutdown(drainCtx)
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "sizingd: drain:", err)
		return 1
	}
	fmt.Println("sizingd: drained")
	return 0
}

// runLoadTest runs the chaos load test and writes its report, also
// when a gate fails, so the failing run can be read.
func runLoadTest(opts service.Options, out string) int {
	rep, err := service.RunLoadTest(opts, true)
	if rep != nil {
		if werr := service.WriteReport(out, rep); werr != nil {
			return exitStatus("loadtest", werr)
		}
		fmt.Printf("sizingd: loadtest %d jobs, %d restarts, p50 %.1fms p99 %.1fms, %.1f jobs/s → %s\n",
			rep.Config.Jobs, rep.Restarts, rep.LatencyMS.P50, rep.LatencyMS.P99, rep.Throughput, out)
	}
	return exitStatus("loadtest", err)
}

// runSessionBench runs the warm-session vs cold-job latency harness
// and writes its report, also when the >= 10x gate fails.
func runSessionBench(opts service.Options, out string) int {
	rep, err := service.RunSessionBench(opts)
	if rep != nil {
		if werr := service.WriteReport(out, rep); werr != nil {
			return exitStatus("sessionbench", werr)
		}
		fmt.Printf("sizingd: sessionbench %s (%d gates): warm p50 %.3fms, cold session p50 %.1fms, cold job p50 %.1fms, speedup %.0fx → %s\n",
			rep.Config.Circuit, rep.Config.Gates, rep.WarmNudgeMS.P50, rep.ColdSessionMS.P50, rep.ColdJobMS.P50, rep.SpeedupP50, out)
	}
	return exitStatus("sessionbench", err)
}

// exitStatus reports a mode's error on stderr and returns its exit
// code.
func exitStatus(mode string, err error) int {
	if err != nil {
		fmt.Fprintf(os.Stderr, "sizingd: %s: %v\n", mode, err)
		return 1
	}
	return 0
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
