// Command dramdigd serves DRAM address-mapping reverse engineering as a
// JSON HTTP daemon: clients submit campaigns over the paper's nine
// machine settings, generated machines or custom definitions; the daemon
// fans them across a worker pool, caches results content-addressed by
// machine fingerprint, and serves cached mappings directly.
//
// Usage:
//
//	dramdigd [-addr :8080] [-cache-dir DIR] [-trace] [-queue-dir DIR]
//	         [-workers N] [-max-running N] [-max-queued N]
//	         [-pprof-addr :6060] [-log-format text|json] [-log-level info]
//	         [-trace-spans N] [-trace-slow-threshold DUR]
//	         [-store-max-bytes N] [-store-gc-interval 1m] [-store-gc-grace 5m]
//	         [-lease-ttl 30s] [-version]
//
// API (v1, the canonical surface):
//
//	POST   /v1/campaigns               enqueue a campaign, returns {"id": "c1", "status": "queued", ...}
//	GET    /v1/campaigns               paginated campaign index (?limit=20&offset=0)
//	GET    /v1/campaigns/{id}          status, recorded progress events, report
//	DELETE /v1/campaigns/{id}          cancel in the queue; a leased campaign's worker stops
//	GET    /v1/campaigns/{id}/events   live progress as Server-Sent Events
//	GET    /v1/campaigns/{id}/trace    recorded timing traces: JSON index, ?job=N streams binary
//	GET    /v1/campaigns/{id}/spans    the campaign's tracing span tree (see README "Tracing")
//	GET    /v1/debug/spans             recent finished spans from the in-memory ring (?limit=N)
//	GET    /v1/mappings/{fingerprint}  cached mapping by machine fingerprint
//	GET    /v1/traces/{fingerprint}    recorded timing trace by machine fingerprint
//	GET    /v1/queue                   queue depth, running campaigns, capacity, drain flag
//	GET    /v1/workers                 cluster worker registry: liveness, leases, outcomes
//	GET    /v1/healthz                 liveness + queue depth, cache entries, full statistics
//	GET    /v1/metrics                 Prometheus text exposition of every layer's metrics (alias /metrics)
//
// The /v1/cluster routes (lease, heartbeat, complete, fail, result and
// trace upload) serve dramdig-worker processes; see README "Running a
// cluster". Every campaign runs on a leasing cluster worker: the daemon
// starts -max-running of them in-process (default 8), and with
// -max-running 0 it starts none and campaigns run only on
// dramdig-worker processes (remote dispatch).
//
// Every response carries X-Request-Id (client-supplied or minted) and
// every request produces one structured log line (-log-format text|json,
// -log-level). With -pprof-addr set, net/http/pprof serves on that
// separate listener — keep it on localhost.
//
// Errors share one envelope: {"error":{"code":"not_found","message":...}}.
//
// Campaigns flow through a durable job queue (internal/queue): POST
// validates and enqueues, workers lease the jobs — at most -max-running
// concurrent campaigns in this process — and a full backlog is
// refused with 429 + Retry-After. With -queue-dir set the queue keeps
// a checksummed journal, queue.log: a restarted daemon re-enqueues
// campaigns that were interrupted mid-run, and their already-finished
// jobs come back from the result store as cache hits (durably so with
// -cache-dir).
// `Idempotency-Key` on POST /v1/campaigns deduplicates resubmissions of
// the same campaign across the retained job history.
//
// With -trace set, every campaign job runs behind an internal/trace
// recorder and its full timing channel is stored content-addressed next
// to the results — replay it offline with `tracectl replay`.
//
// Results and traces share one segment keyspace (see README "Storage
// layer"): files under <cache-dir>/segments, or the same segments in
// memory without -cache-dir. -store-max-bytes bounds its size with LRU
// eviction, and a
// background GC (-store-gc-interval, -store-gc-grace) reclaims traces
// whose jobs have been evicted from the queue and compacts dead
// segments, in either medium. Flat-file cache directories from releases
// before the segment store are not read (see MIGRATION.md).
//
// Example:
//
//	curl -s localhost:8080/v1/campaigns -H 'Idempotency-Key: nightly-42' -d '{"machines":[-1],"seed":42}'
//	curl -sN localhost:8080/v1/campaigns/c1/events
//	curl -s localhost:8080/v1/campaigns/c1
//	curl -s localhost:8080/v1/queue
//
// SIGINT/SIGTERM shut the daemon down gracefully: new submissions are
// refused with 503 + Retry-After, in-process workers stop their
// campaigns and are drained before exit — the queue entries survive
// for the next boot to resume.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"dramdig/internal/buildinfo"
	"dramdig/internal/logging"
	"dramdig/internal/metrics"
	"dramdig/internal/obs"
	"dramdig/internal/queue"
	"dramdig/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		cacheDir   = flag.String("cache-dir", "", "persist results and traces in this directory's segments/ (empty: memory only)")
		tracing    = flag.Bool("trace", false, "record every job's timing trace into the store, next to its result")
		queueDir   = flag.String("queue-dir", "", "persist the job queue as one journal, queue.log, under this directory (empty: memory only, no crash recovery)")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "default campaign worker pool size")
		maxRun     = flag.Int("max-running", defaultMaxRunning, "in-process workers: campaigns this process runs at once, the rest wait in the queue (0: remote dispatch, only dramdig-worker processes run campaigns)")
		maxQueued  = flag.Int("max-queued", 64, "pending campaign backlog before POSTs get 429")
		pprofAddr  = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty: off)")
		logFormat  = flag.String("log-format", logging.FormatText, "structured log format: text or json")
		logLevel   = flag.String("log-level", "info", "structured log level: debug, info, warn or error")
		traceSpans = flag.Int("trace-spans", 4096, "finished request spans retained in memory (0 disables tracing)")
		traceSlow  = flag.Duration("trace-slow-threshold", 0, "promote spans at least this long to WARN log lines (0: off)")
		storeMax   = flag.Int64("store-max-bytes", 0, "bound the result/trace segments, on disk or in memory, to this many bytes, evicting LRU blobs past it (0: unbounded)")
		gcInterval = flag.Duration("store-gc-interval", time.Minute, "how often the store GC reclaims orphaned traces and compacts segments (0: GC off)")
		gcGrace    = flag.Duration("store-gc-grace", 5*time.Minute, "how long a freshly written blob is exempt from orphan reclamation")
		leaseTTL   = flag.Duration("lease-ttl", defaultLeaseTTL, "cluster lease heartbeat deadline; a silent worker loses its job after this long")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		buildinfo.Print("dramdigd")
		return
	}
	if *maxRun < 0 {
		fatal(fmt.Errorf("-max-running %d: want 0 (remote dispatch) or more", *maxRun))
	}

	logger, err := logging.New(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fatal(err)
	}

	st, err := store.Open(store.Config{
		Dir:      *cacheDir,
		MaxBytes: *storeMax,
		GCGrace:  *gcGrace,
	})
	if err != nil {
		fatal(err)
	}
	defer st.Close()
	q, err := queue.Open(queue.Config{Dir: *queueDir, Capacity: *maxQueued})
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var tracer *obs.Tracer
	if *traceSpans > 0 {
		tracer = obs.NewTracer(obs.Config{
			Capacity:      *traceSpans,
			SlowThreshold: *traceSlow,
			Logger:        logger,
		})
	}
	registry := metrics.NewRegistry()
	buildinfo.Register(registry)
	srv := newServer(ctx, st, q, serverConfig{
		workers:    *workers,
		tracing:    *tracing,
		maxRunning: *maxRun,
		registry:   registry,
		logger:     logger,
		tracer:     tracer,
		leaseTTL:   *leaseTTL,
		gcInterval: *gcInterval,
	})
	httpSrv := &http.Server{
		Addr:        *addr,
		Handler:     srv,
		BaseContext: func(net.Listener) context.Context { return ctx },
	}

	// The profiling listener is deliberately separate from the API
	// listener: pprof exposes heap contents and must never ride on an
	// address that gets exposed beyond localhost by accident. The mux is
	// explicit — importing net/http/pprof registers on DefaultServeMux,
	// which we do not serve.
	if *pprofAddr != "" {
		pprofMux := http.NewServeMux()
		pprofMux.HandleFunc("/debug/pprof/", pprof.Index)
		pprofMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pprofMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pprofMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pprofMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv := &http.Server{Addr: *pprofAddr, Handler: pprofMux}
		go func() {
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "addr", *pprofAddr, "err", err)
			}
		}()
		defer pprofSrv.Close()
		logger.Info("pprof listening", "addr", *pprofAddr)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "dramdigd: listening on %s (workers %d, cache %q)\n", *addr, *workers, *cacheDir)
	logger.Info("listening", "addr", *addr, "workers", *workers, "cache_dir", *cacheDir,
		"queue_dir", *queueDir, "max_running", *maxRun)

	select {
	case <-ctx.Done():
		// Release the signal handler immediately: a second SIGINT/SIGTERM
		// now force-kills instead of being swallowed while we drain.
		stop()
		// Refuse new work for the rest of this process's life: accepted
		// campaigns would be cancelled moments later, and queued ones
		// would sit until the next boot anyway. Clients get 503 +
		// Retry-After and resubmit to the successor.
		srv.beginDrain()
		fmt.Fprintln(os.Stderr, "dramdigd: shutting down (signal again to force)")
	case err := <-errCh:
		fatal(err)
	}

	// Stop accepting connections, then drain cancelled campaigns — with a
	// deadline, since a job mid-pipeline only notices cancellation
	// between attempts.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "dramdigd: shutdown:", err)
	}
	drained := make(chan struct{})
	go func() { srv.drain(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		fmt.Fprintln(os.Stderr, "dramdigd: campaigns still draining after 30s, exiting anyway")
	}
	// Compact and release the queue: interrupted campaigns stay recorded
	// as in flight for the next boot to resume.
	if err := q.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "dramdigd: queue close:", err)
	}
	fmt.Fprintln(os.Stderr, "dramdigd: bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dramdigd:", err)
	os.Exit(1)
}
