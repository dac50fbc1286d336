// The worker: lease a job, rebuild its specs, run the campaign behind
// the coordinator's result store, send every per-job event as progress,
// and report the outcome. It is the only code that executes a campaign
// — in dramdig-worker processes over HTTP, and inside dramdigd as
// in-process workers — so leases, progress events, store write-through
// and trace capture behave the same wherever a campaign runs. A
// requeued campaign needs no record of its own progress: every job an
// earlier attempt finished is already in the store, and wrap serves it
// from there.

package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"dramdig/internal/campaign"
	"dramdig/internal/core"
	"dramdig/internal/engine"
	"dramdig/internal/logging"
	"dramdig/internal/metrics"
	"dramdig/internal/obs"
	"dramdig/internal/store"
	"dramdig/internal/timing"
)

// Coordinator is a worker's link to the queue it leases from and the
// store its results land in. *Client reaches a coordinator process over
// HTTP; dramdigd implements it with direct calls for its in-process
// workers. Calls that act on a lease return ErrLeaseLost once the lease
// has expired, been cancelled or moved to another worker.
type Coordinator interface {
	// Worker names the lease owner.
	Worker() string
	// Lease asks for the next job; ok is false when none is pending or
	// the coordinator is draining.
	Lease(ctx context.Context) (g *LeaseGrant, ok bool, err error)
	// Ready is signalled when pending work may have appeared; nil means
	// the coordinator cannot signal and an idle worker polls.
	Ready() <-chan struct{}
	// Heartbeat renews a lease, carrying a metrics snapshot when it is
	// non-empty.
	Heartbeat(ctx context.Context, id, token string, snap json.RawMessage) error
	// Complete and Fail end a lease with the campaign's outcome.
	Complete(ctx context.Context, id, token string, report json.RawMessage, spans []obs.SpanData, snap json.RawMessage) error
	Fail(ctx context.Context, id, token, msg string) error
	// Progress records one per-job event of a leased campaign in the
	// job's queue history.
	Progress(ctx context.Context, id, token string, ev campaign.Event) error
	// GetOrCompute returns fp's stored result, or runs compute and
	// stores what it returns.
	GetOrCompute(ctx context.Context, fp string, compute func() (*store.Record, error)) (*store.Record, error)
	// TraceWriter stores the bytes written to it as fp's trace on Close.
	TraceWriter(ctx context.Context, fp string) (io.WriteCloser, error)
}

// WorkerConfig tunes a Worker.
type WorkerConfig struct {
	// Workers caps concurrent campaign jobs (default GOMAXPROCS). Each
	// job gets the campaign default of one retry.
	Workers int
	// Poll is the idle poll interval when the coordinator cannot signal
	// new work (default 500ms).
	Poll time.Duration
	// Tracing records every attempt's timing trace into the
	// coordinator's store.
	Tracing bool
	// Logger receives worker logs (nil discards); Tracer, when non-nil,
	// records campaign spans.
	Logger *slog.Logger
	Tracer *obs.Tracer
	// Metrics, when non-nil, collects the engine and campaign families.
	// A remote worker also registers Go runtime self-metrics and lease
	// counters, and ships snapshots of the registry on heartbeats and
	// completions so the coordinator's federated scrape covers the fleet.
	Metrics *metrics.Registry
}

// Worker leases jobs from one coordinator and runs them until its
// context ends.
type Worker struct {
	cfg   WorkerConfig
	coord Coordinator
	log   *slog.Logger
	// remote is set when the coordinator is another process: only then
	// does the worker ship metrics snapshots and its finished spans.
	// In-process workers share the coordinator's registry and tracer.
	remote bool

	// inst instruments the campaign engine and jobs counts the job
	// events by kind when cfg.Metrics is set. Both are nil-safe: a kind
	// without a counter, and every kind without a registry, reads a nil
	// counter, which counts nothing. ship is set for a remote worker
	// with a registry: only it sends metrics snapshots.
	inst *timing.Instrument
	jobs map[campaign.EventKind]*metrics.Counter
	ship bool

	completed atomic.Uint64
	failed    atomic.Uint64
	leases    atomic.Uint64

	// lastShip is the unix-nano time of the last snapshot encode;
	// heartbeats less than snapshotMinInterval after it skip the encode
	// entirely.
	lastShip atomic.Int64

	// RunCampaign executes a leased campaign. It is campaign.Run; tests
	// replace it before the worker's first lease.
	RunCampaign func(context.Context, []campaign.Spec, campaign.Config) (*campaign.Report, error)
}

// snapshotMinInterval floors how often heartbeats attempt a metrics
// snapshot. Heartbeats run at TTL/3, which under a short lease TTL is
// far faster than any scraper reads the federated page; snapshot
// shipping keeps its own cadence so a hot heartbeat loop never pays the
// walk-the-registry cost per beat. Completions bypass the floor.
const snapshotMinInterval = time.Second

// NewWorker builds a worker leasing through c.
func NewWorker(c Coordinator, cfg WorkerConfig) *Worker {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 500 * time.Millisecond
	}
	log := cfg.Logger
	if log == nil {
		log = logging.Discard()
	}
	_, remote := c.(*Client)
	w := &Worker{
		cfg:         cfg,
		coord:       c,
		log:         log.With("worker", c.Worker()),
		remote:      remote,
		RunCampaign: campaign.Run,
	}
	if r := cfg.Metrics; r != nil {
		w.inst = engine.NewInstrument(r)
		w.jobs = map[campaign.EventKind]*metrics.Counter{
			campaign.EventJobStarted: r.Counter("dramdig_campaign_jobs_started_total",
				"Campaign jobs picked up by a worker.", nil),
			campaign.EventJobFinished: r.Counter("dramdig_campaign_jobs_succeeded_total",
				"Campaign jobs that produced a mapping.", nil),
			campaign.EventJobFailed: r.Counter("dramdig_campaign_jobs_failed_total",
				"Campaign jobs that exhausted their attempts.", nil),
		}
	}
	if r := cfg.Metrics; r != nil && remote {
		metrics.RegisterRuntime(r)
		w.ship = true
		r.CounterFunc("dramdig_worker_leases_total",
			"Lease grants accepted by this worker.", nil,
			func() float64 { return float64(w.leases.Load()) })
		r.CounterFunc("dramdig_worker_completed_total",
			"Campaign jobs this worker completed.", nil,
			func() float64 { return float64(w.completed.Load()) })
		r.CounterFunc("dramdig_worker_failed_total",
			"Campaign jobs this worker failed or could not report.", nil,
			func() float64 { return float64(w.failed.Load()) })
	}
	return w
}

// snapshotJSON marshals the worker's whole metrics snapshot for the
// wire; nil when the worker ships no snapshots (in-process, or no
// registry — the payload fields are omitempty) or, unless force is set,
// when the last one left under snapshotMinInterval ago. Completions
// force a snapshot so the coordinator holds the worker's state by the
// time the job's results land.
func (w *Worker) snapshotJSON(force bool) json.RawMessage {
	if !w.ship {
		return nil
	}
	now := time.Now().UnixNano()
	if !force && now-w.lastShip.Load() < int64(snapshotMinInterval) {
		return nil
	}
	w.lastShip.Store(now)
	data, err := json.Marshal(w.cfg.Metrics.Snapshot())
	if err != nil {
		return nil
	}
	return data
}

// count adds one job event to its kind's lifecycle counter.
func (w *Worker) count(ev campaign.Event) { w.jobs[ev.Kind].Inc() }

// Stats reports lifetime completion counts (tests and shutdown logs).
func (w *Worker) Stats() (completed, failed uint64) {
	return w.completed.Load(), w.failed.Load()
}

// Run leases jobs and executes them until ctx ends. Always returns
// ctx's error.
func (w *Worker) Run(ctx context.Context) error {
	w.log.Info("worker started")
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		grant, ok, err := w.coord.Lease(ctx)
		if err != nil && ctx.Err() == nil {
			w.log.Warn("lease request failed", "err", err)
		}
		if ok {
			w.runLease(ctx, grant)
			continue
		}
		w.idle(ctx)
	}
}

// idle waits until a lease attempt may succeed: on the coordinator's
// ready signal when it has one, else for one poll interval.
func (w *Worker) idle(ctx context.Context) {
	if ready := w.coord.Ready(); ready != nil {
		select {
		case <-ctx.Done():
		case <-ready:
		}
		return
	}
	t := time.NewTimer(w.cfg.Poll)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// fail reports a job failure, best-effort.
func (w *Worker) fail(ctx context.Context, g *LeaseGrant, msg string) {
	w.failed.Add(1)
	if err := w.coord.Fail(ctx, g.ID, g.Token, msg); err != nil {
		w.log.Warn("fail report not delivered", "campaign", g.ID, "err", err)
	}
}

// runLease executes one granted job end to end.
func (w *Worker) runLease(ctx context.Context, g *LeaseGrant) {
	var p Payload
	if err := json.Unmarshal(g.Payload, &p); err != nil {
		w.fail(ctx, g, fmt.Sprintf("decode payload: %v", err))
		return
	}
	specs, err := BuildSpecs(p.Request, p.Seed)
	if err != nil {
		w.fail(ctx, g, fmt.Sprintf("build specs: %v", err))
		return
	}
	ttl := time.Duration(g.TTLMillis) * time.Millisecond
	if ttl <= 0 {
		ttl = 30 * time.Second
	}

	// runCtx ends when the campaign should stop: worker shutdown, or
	// the lease being lost or ended by the queue.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	l := &lease{w: w, g: g, ctx: runCtx, cancel: cancel}

	// Re-enter the grant's trace and the submitting request's ID so the
	// worker's spans and log lines join the coordinator's.
	tctx := runCtx
	if w.cfg.Tracer != nil {
		tctx = obs.WithTracer(tctx, w.cfg.Tracer)
		if sc, perr := obs.ParseTraceParent(g.TraceParent); perr == nil {
			tctx = obs.WithSpanContext(tctx, sc)
		}
	}
	if g.RequestID != "" {
		tctx = logging.WithRequestID(tctx, g.RequestID)
	}
	tctx, sp := obs.Start(tctx, "campaign.run",
		obs.KV("worker", w.coord.Worker()),
		obs.KV("campaign", g.ID),
		obs.Int("jobs", int64(len(specs))),
		obs.Int("attempt", int64(g.Attempts)))
	traceID := obs.SpanContextFrom(tctx).TraceID

	hbDone := make(chan struct{})
	go l.keepAlive(ttl, hbDone)

	cfg := campaign.Config{
		Workers:    p.Request.Workers,
		Seed:       p.Seed,
		OnEvent:    l.progress,
		Wrap:       w.wrap,
		Instrument: w.inst,
	}
	// The operator's worker cap is a ceiling, not a default a client may
	// exceed.
	if cfg.Workers <= 0 || cfg.Workers > w.cfg.Workers {
		cfg.Workers = w.cfg.Workers
	}
	if w.cfg.Tracing {
		cfg.TraceSink = func(spec campaign.Spec, index, attempt int) (io.WriteCloser, error) {
			return w.coord.TraceWriter(tctx, spec.MachineFingerprint())
		}
	}

	w.leases.Add(1)
	w.log.Info("campaign leased", append([]any{"campaign", g.ID, "jobs", len(specs), "attempt", g.Attempts}, obs.LogAttrs(tctx)...)...)
	var rep *campaign.Report
	var runErr error
	// The pprof label segments CPU profiles by campaign (jobs add their
	// own "job" label inside, see campaign.runJob).
	pprof.Do(tctx, pprof.Labels("campaign", g.ID), func(ctx context.Context) {
		rep, runErr = w.RunCampaign(ctx, specs, cfg)
	})
	cancel()
	<-hbDone
	sp.SetError(runErr)
	sp.End()

	switch {
	case l.lost.Load():
		// The job was cancelled or someone else owns it now; reporting
		// anything would be rejected — and the work must not be
		// double-counted.
		w.log.Warn("lease lost; abandoning job", "campaign", g.ID)
	case ctx.Err() != nil:
		// Worker shutdown mid-campaign: the job stays in flight, and the
		// coordinator requeues it; its finished jobs wait in the store.
		w.log.Info("shutdown mid-campaign; job left in flight", "campaign", g.ID)
	case runErr != nil:
		w.log.Warn("campaign failed", "campaign", g.ID, "err", runErr)
		w.fail(ctx, g, runErr.Error())
	default:
		report, err := json.Marshal(EncodeReport(rep))
		if err != nil {
			w.fail(ctx, g, fmt.Sprintf("encode report: %v", err))
			return
		}
		var spans []obs.SpanData
		if w.remote && w.cfg.Tracer != nil {
			spans = w.cfg.Tracer.TraceSpans(traceID)
		}
		if err := w.coord.Complete(ctx, g.ID, g.Token, report, spans, w.snapshotJSON(true)); err != nil {
			w.failed.Add(1)
			w.log.Warn("completion not delivered", "campaign", g.ID, "err", err)
			return
		}
		w.completed.Add(1)
		w.log.Info("campaign completed", "campaign", g.ID, "succeeded", rep.Succeeded, "failed", rep.Failed)
	}
}

// lease is one running grant's heartbeat state.
type lease struct {
	w      *Worker
	g      *LeaseGrant
	ctx    context.Context
	cancel context.CancelFunc
	lost   atomic.Bool
}

// beat renews the lease. A lease_lost answer stops the campaign.
func (l *lease) beat() {
	// The metrics snapshot rides the beat: fleet telemetry with no extra
	// connection.
	err := l.w.coord.Heartbeat(l.ctx, l.g.ID, l.g.Token, l.w.snapshotJSON(false))
	switch {
	case err == nil:
	case errors.Is(err, ErrLeaseLost):
		l.lose()
	case l.ctx.Err() == nil:
		l.w.log.Warn("heartbeat failed", "campaign", l.g.ID, "err", err)
	}
}

// progress counts one per-job event and records it in the job's
// history; a lease_lost answer stops the campaign, as it does for a
// heartbeat.
func (l *lease) progress(ev campaign.Event) {
	l.w.count(ev)
	err := l.w.coord.Progress(l.ctx, l.g.ID, l.g.Token, ev)
	switch {
	case err == nil:
	case errors.Is(err, ErrLeaseLost):
		l.lose()
	case l.ctx.Err() == nil:
		l.w.log.Warn("progress event not recorded", "campaign", l.g.ID, "event", ev.Kind, "err", err)
	}
}

// lose marks the lease gone and stops the campaign.
func (l *lease) lose() {
	l.lost.Store(true)
	l.cancel()
}

// keepAlive renews the lease every ttl/3 until the campaign stops,
// and stops it at once if the grant's Revoked channel says the queue
// ended the lease.
func (l *lease) keepAlive(ttl time.Duration, done chan struct{}) {
	defer close(done)
	interval := ttl / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-l.ctx.Done():
			return
		case <-l.g.Revoked:
			l.lose()
			return
		case <-tick.C:
			l.beat()
		}
	}
}

// wrap backs each job with the coordinator's store: a fingerprint hit
// skips the pipeline, and a fresh result is stored before the job
// counts as done — completion never outruns results. That order is what
// lets a requeued campaign resume from the store alone: every job an
// earlier attempt finished comes back here as a hit, reported cached.
func (w *Worker) wrap(ctx context.Context, spec campaign.Spec, run func() campaign.Outcome) campaign.Outcome {
	fp := spec.MachineFingerprint()
	var direct *campaign.Outcome
	rec, err := w.coord.GetOrCompute(ctx, fp, func() (*store.Record, error) {
		out := run()
		direct = &out
		if out.Err != nil {
			return nil, out.Err
		}
		return &store.Record{
			Fingerprint:        fp,
			MachineName:        spec.Def.Name,
			Mapping:            out.Result.Mapping,
			MappingFingerprint: out.Result.Mapping.Fingerprint(),
			Match:              out.Match,
			SimSeconds:         out.Result.TotalSimSeconds,
			Measurements:       out.Result.Measurements,
		}, nil
	})
	if direct != nil {
		// This call executed the pipeline; report its outcome verbatim
		// unless storing the result failed.
		if err != nil && direct.Err == nil {
			return campaign.Outcome{Err: err, Attempts: direct.Attempts}
		}
		return *direct
	}
	if err != nil {
		// Another flight's failure; count it as one shared attempt.
		return campaign.Outcome{Err: err, Attempts: 1}
	}
	return campaign.Outcome{
		Result: &core.Result{
			Mapping:         rec.Mapping,
			TotalSimSeconds: rec.SimSeconds,
			Measurements:    rec.Measurements,
		},
		Match:  rec.Match,
		Cached: true,
	}
}
