// Command dramdig-worker is a cluster worker for dramdigd: it leases
// queued campaign jobs from a coordinator over HTTP (/v1/cluster) and
// runs them through the same cluster.Worker the coordinator's own
// in-process workers use — results and timing traces go into the
// coordinator's content-addressed store.
//
// Usage:
//
//	dramdig-worker [-coordinator http://localhost:8080] [-name NAME]
//	               [-workers N] [-poll 500ms] [-trace]
//	               [-log-format text|json] [-log-level info]
//	               [-trace-spans N] [-version]
//
// The worker is stateless: everything durable — queue entries, results,
// traces — lives on the coordinator. Killing a worker mid-campaign
// costs at most one lease TTL; the coordinator requeues the job and
// another worker resumes it, finding the finished jobs' results in the
// store. Start any number of workers against one coordinator; each
// leases the queue's next job, highest priority first, then oldest.
//
// SIGINT/SIGTERM stop the worker after abandoning its current lease
// (the coordinator requeues it at the next sweep).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"dramdig/internal/buildinfo"
	"dramdig/internal/cluster"
	"dramdig/internal/logging"
	"dramdig/internal/metrics"
	"dramdig/internal/obs"
)

func main() {
	var (
		coordinator = flag.String("coordinator", "http://localhost:8080", "coordinator base URL")
		name        = flag.String("name", "", "stable worker name (default hostname-pid)")
		workers     = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent jobs per leased campaign")
		poll        = flag.Duration("poll", 500*time.Millisecond, "idle poll interval when no job is pending")
		tracing     = flag.Bool("trace", false, "record timing traces and upload them to the coordinator")
		logFormat   = flag.String("log-format", logging.FormatText, "structured log format: text or json")
		logLevel    = flag.String("log-level", "info", "structured log level: debug, info, warn or error")
		traceSpans  = flag.Int("trace-spans", 4096, "finished spans retained for completion shipping (0 disables tracing)")
		version     = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		buildinfo.Print("dramdig-worker")
		return
	}

	logger, err := logging.New(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fatal(err)
	}
	if *name == "" {
		host, herr := os.Hostname()
		if herr != nil || host == "" {
			host = "worker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	var tracer *obs.Tracer
	if *traceSpans > 0 {
		tracer = obs.NewTracer(obs.Config{Capacity: *traceSpans, Logger: logger})
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	w := cluster.NewWorker(cluster.NewClient(*coordinator, *name, nil), cluster.WorkerConfig{
		Workers: *workers,
		Poll:    *poll,
		Tracing: *tracing,
		Logger:  logger,
		Tracer:  tracer,
		// The worker serves no scrape endpoint of its own: snapshots of
		// this registry ship with heartbeats and completions, and the
		// coordinator federates them at /v1/cluster/metrics.
		Metrics: metrics.NewRegistry(),
	})
	logger.Info("worker started", "name", *name, "coordinator", *coordinator, "workers", *workers)
	err = w.Run(ctx)
	completed, failed := w.Stats()
	logger.Info("worker stopped", "completed", completed, "failed", failed)
	if err != nil && !errors.Is(err, context.Canceled) {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "dramdig-worker: bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dramdig-worker:", err)
	os.Exit(1)
}
