// The dramdigd HTTP surface: a handler struct wiring campaigns, the
// durable job queue and the result store behind a versioned JSON API.
// Kept separate from main so tests can drive it through httptest
// without sockets or signals.
//
// The surface lives under /v1 with a uniform error envelope
// {"error":{"code":...,"message":...}}, campaign listing with
// limit/offset pagination, and live progress streaming over SSE at
// GET /v1/campaigns/{id}/events.
//
// Campaign execution is queue-driven: POST /v1/campaigns validates and
// enqueues (202 with status "queued"), and cluster workers lease the
// jobs (cluster.go): -max-running of them inside this process, leasing
// through direct calls (inprocess.go), and any number of dramdig-worker
// processes; with -max-running 0 only the latter run campaigns. The
// queue alone ends a lease and closes its LeaseEnded channel, so an
// in-process holder stops the moment its campaign is cancelled or its
// lease expires. Every state transition lands in the queue's WAL. With a
// durable queue (-queue-dir) a restarted daemon re-enqueues interrupted
// campaigns, and their already-finished jobs come back from the result
// store as cache hits.
//
// A campaign's queue job is its only state. Workers record their
// per-job progress events in the job's history (queue.Progress), and
// every campaign read — GET, the index, the SSE stream, the trace
// index, spans, the timeline, cancel and the transition logs — derives
// from queue.Get or queue.Jobs, so a campaign reads the same whichever
// worker ran it and across restarts, for as long as the queue retains
// it (queue.Config.KeepTerminal). Reads see a transition as soon as the
// queue applies it, microseconds before its group commit; a crash in
// that window re-runs the campaign, from the store, to the same report.

package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"dramdig/internal/campaign"
	"dramdig/internal/cluster"
	"dramdig/internal/logging"
	"dramdig/internal/metrics"
	"dramdig/internal/obs"
	"dramdig/internal/queue"
	"dramdig/internal/store"
)

// serverConfig tunes the daemon handler.
type serverConfig struct {
	// workers caps each campaign's worker pool.
	workers int
	// tracing records every campaign job's timing channel into the
	// store, content-addressed by machine fingerprint.
	tracing bool
	// maxRunning is the number of in-process workers, so it bounds the
	// campaigns this process executes at once; 0 leaves every campaign
	// to dramdig-worker processes (remote dispatch).
	maxRunning int
	// registry collects every layer's metrics; nil gets a fresh registry
	// (tests and main both scrape it via GET /v1/metrics).
	registry *metrics.Registry
	// logger receives structured request and campaign-transition logs;
	// nil discards them.
	logger *slog.Logger
	// tracer records request-scoped spans across every layer; nil
	// disables tracing (every instrumentation site degrades to a no-op).
	tracer *obs.Tracer
	// leaseTTL is the cluster heartbeat deadline (default 30s): a worker
	// silent past it loses the lease and the job requeues.
	leaseTTL time.Duration
	// gcInterval runs the store's garbage collector this often: orphaned
	// traces (jobs evicted from the queue) are reclaimed, the
	// -store-max-bytes bound is enforced and dead segments compacted.
	// 0 disables background GC.
	gcInterval time.Duration
}

// server is the daemon's handler. In-process workers run on the base
// context, so cancelling it (process shutdown) stops them; their queue
// entries stay in flight and recover at the next boot.
type server struct {
	mux *http.ServeMux
	// handler is mux wrapped in the observability middleware (observe.go).
	handler http.Handler
	st      *store.Store
	q       *queue.Queue
	baseCtx context.Context
	cfg     serverConfig
	log     *slog.Logger
	// reg is the metrics registry every layer registers into; om is the
	// daemon's own metric set; ids mints request IDs.
	reg    *metrics.Registry
	om     *serverMetrics
	ids    *logging.IDGen
	tracer *obs.Tracer
	// cl tracks cluster workers and lease counters (cluster.go); the
	// lease-expiry sweeper feeds it.
	cl *clusterState
	// workers are the in-process workers, cfg.maxRunning of them.
	workers []*cluster.Worker

	// fpCache memoizes each retained job's machine fingerprints for the
	// store GC's referenced-set computation (see referencedFingerprints).
	fpMu    sync.Mutex
	fpCache map[string][]string

	mu       sync.Mutex
	draining bool

	wg sync.WaitGroup // in-process workers
}

func newServer(baseCtx context.Context, st *store.Store, q *queue.Queue, cfg serverConfig) *server {
	if cfg.registry == nil {
		cfg.registry = metrics.NewRegistry()
	}
	if cfg.logger == nil {
		cfg.logger = logging.Discard()
	}
	if cfg.leaseTTL <= 0 {
		cfg.leaseTTL = defaultLeaseTTL
	}
	s := &server{
		st:      st,
		q:       q,
		baseCtx: baseCtx,
		cfg:     cfg,
		log:     cfg.logger,
		reg:     cfg.registry,
		ids:     logging.NewIDGen(),
		fpCache: make(map[string][]string),
		tracer:  cfg.tracer,
	}
	// Every layer registers into the one registry: daemon middleware,
	// queue WAL/backlog, store cache tiers, the cluster, and — through
	// the in-process workers — campaign lifecycle and the engine's
	// measurement hot path.
	s.om = newServerMetrics(s.reg)
	s.q.RegisterMetrics(s.reg)
	s.st.RegisterMetrics(s.reg)
	s.cl = newClusterState(s.reg, s.q)
	if tr := s.tracer; tr != nil {
		s.reg.CounterFunc("dramdig_trace_spans_started_total",
			"Spans opened by the tracer.", nil,
			func() float64 { return float64(tr.Stats().Started) })
		s.reg.CounterFunc("dramdig_trace_spans_finished_total",
			"Spans finished and handed to the ring.", nil,
			func() float64 { return float64(tr.Stats().Finished) })
		s.reg.CounterFunc("dramdig_trace_spans_dropped_total",
			"Finished spans evicted from the bounded ring.", nil,
			func() float64 { return float64(tr.Stats().Dropped) })
		s.reg.GaugeFunc("dramdig_trace_spans_retained",
			"Finished spans currently retained in the ring.", nil,
			func() float64 { return float64(tr.Stats().Retained) })
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/campaigns", s.handleCreateCampaign)
	s.mux.HandleFunc("GET /v1/campaigns", s.handleListCampaigns)
	s.mux.HandleFunc("GET /v1/campaigns/{id}", s.handleGetCampaign)
	s.mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCancelCampaign)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleCampaignEvents)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/trace", s.handleGetCampaignTrace)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/spans", s.handleGetCampaignSpans)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/timeline", s.handleGetCampaignTimeline)
	s.mux.HandleFunc("GET /v1/debug/spans", s.handleDebugSpans)
	s.mux.HandleFunc("GET /v1/mappings/{fingerprint}", s.handleGetMapping)
	s.mux.HandleFunc("GET /v1/traces/{fingerprint}", s.handleGetTrace)
	s.mux.HandleFunc("GET /v1/queue", s.handleGetQueue)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	// The cluster lease API (cluster.go): workers pull jobs, renew
	// leases, report outcomes and upload artifacts.
	s.mux.HandleFunc("POST /v1/cluster/lease", s.handleClusterLease)
	s.mux.HandleFunc("POST /v1/cluster/jobs/{id}/heartbeat", s.handleClusterHeartbeat)
	s.mux.HandleFunc("POST /v1/cluster/jobs/{id}/progress", s.handleClusterProgress)
	s.mux.HandleFunc("POST /v1/cluster/jobs/{id}/complete", s.handleClusterComplete)
	s.mux.HandleFunc("POST /v1/cluster/jobs/{id}/fail", s.handleClusterFail)
	s.mux.HandleFunc("PUT /v1/cluster/results/{fingerprint}", s.handleClusterUploadResult)
	s.mux.HandleFunc("PUT /v1/cluster/traces/{fingerprint}", s.handleClusterUploadTrace)
	s.mux.HandleFunc("GET /v1/workers", s.handleGetWorkers)
	// The federated fleet scrape: every worker's last shipped snapshot
	// on one page, instance-labeled (cluster.go).
	s.mux.HandleFunc("GET /v1/cluster/metrics", s.handleClusterMetrics)
	s.mux.Handle("GET /v1/metrics", s.reg.Handler())
	// /metrics is the conventional scrape path — an alias.
	s.mux.Handle("GET /metrics", s.reg.Handler())

	s.handler = s.observe(s.mux)

	s.startWorkers()
	go s.sweepLeases()
	if cfg.gcInterval > 0 {
		// The store GC reaps traces whose jobs the queue no longer
		// retains; every retained job's machine fingerprints stay pinned.
		gctx := baseCtx
		if s.tracer != nil {
			gctx = obs.WithTracer(gctx, s.tracer)
		}
		s.st.StartGC(gctx, cfg.gcInterval, s.referencedFingerprints)
	}
	return s
}

// referencedFingerprints returns every machine fingerprint reachable
// from a job the queue still retains — the set the store GC must not
// reclaim artifacts for. Specs are rebuilt from job payloads at most
// once per job (memoized by job ID; entries for evicted jobs are pruned
// on the next call, which is exactly when their traces become orphans).
func (s *server) referencedFingerprints() map[string]bool {
	jobs := s.q.Jobs()
	refs := make(map[string]bool)
	live := make(map[string]bool, len(jobs))
	s.fpMu.Lock()
	defer s.fpMu.Unlock()
	for _, job := range jobs {
		live[job.ID] = true
		fps, ok := s.fpCache[job.ID]
		if !ok {
			specList := specsFromPayload(job.Payload)
			fps = make([]string, 0, len(specList))
			for _, spec := range specList {
				fps = append(fps, spec.MachineFingerprint())
			}
			s.fpCache[job.ID] = fps
		}
		for _, fp := range fps {
			refs[fp] = true
		}
	}
	for id := range s.fpCache {
		if !live[id] {
			delete(s.fpCache, id)
		}
	}
	return refs
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// maxCampaignJobs bounds one request's job count and defaultMaxRunning
// is -max-running's default number of in-process workers; both keep a
// hostile client from pinning the daemon's memory or cores with cheap
// POSTs. Retained campaigns are bounded by the queue
// (queue.Config.KeepTerminal). The Retry-After hint on 429/503
// rejections derives from the live queue depth (see
// retryAfterSecondsHint in observe.go).
const (
	maxCampaignJobs   = cluster.MaxCampaignJobs
	defaultMaxRunning = 8
)

// logTransition emits the structured log line for a campaign state
// transition — one line per transition, with the campaign ID on every
// line so transitions correlate across the daemon's lifetime. The
// originating request's ID and trace ID ride along from the campaign's
// queue job (which carries them across restarts), so transition lines
// correlate with the request log and span tree without the caller
// threading them through.
func (s *server) logTransition(id, from, to string, attrs ...any) {
	if job, ok := s.q.Get(id); ok {
		if job.RequestID != "" {
			attrs = append(attrs, "request_id", job.RequestID)
		}
		if tid := traceIDOf(job.TraceParent); tid != "" {
			attrs = append(attrs, "trace_id", tid)
		}
	}
	s.log.Info("campaign transition",
		append([]any{"campaign", id, "from", from, "to", to}, attrs...)...)
}

// drain blocks until every in-process worker has stopped; call after
// cancelling the base context. The campaigns they abandoned stay in
// flight in the queue for the next boot to resume, and read "running"
// until then.
func (s *server) drain() { s.wg.Wait() }

// dispatch names the execution mode /v1/queue and /v1/workers report:
// "local" while this process runs in-process workers, "remote" when
// -max-running 0 leaves every campaign to dramdig-worker processes.
func (s *server) dispatch() string {
	if s.cfg.maxRunning > 0 {
		return "local"
	}
	return "remote"
}

// beginDrain flips the daemon into shutdown mode: new campaign
// submissions are refused with 503 + Retry-After instead of accepting
// work the dying process would lose (or strand in the queue until the
// next boot).
func (s *server) beginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// --- queue-backed campaign state --------------------------------------

// campaignPayload is what a campaign job carries through the queue.
// The shape lives in internal/cluster (as do the request and report
// shapes) so every worker deserializes it identically.
type campaignPayload = cluster.Payload

// campaignStatus maps a queue state onto the campaign status the API
// reports.
func campaignStatus(st queue.State) string {
	switch {
	case st == queue.StateSubmitted:
		return "queued"
	case st.InFlight():
		return "running"
	}
	return string(st)
}

// campaignProgress derives a campaign's job count from its payload and
// its finished-job count from its history: the current attempt's
// job_finished and job_failed events, or every job once it is done.
func campaignProgress(job queue.Job) (total, done int) {
	total = campaignJobs(job.Payload)
	if job.State == queue.StateDone {
		return total, total
	}
	for _, ev := range job.History {
		if ev.Attempt == job.Attempts && (ev.Type == string(campaign.EventJobFinished) || ev.Type == string(campaign.EventJobFailed)) {
			done++
		}
	}
	return total, done
}

// campaignEvents returns the progress events in a campaign's history,
// earlier attempts' included, in the order they were recorded.
func campaignEvents(job queue.Job) []json.RawMessage {
	var out []json.RawMessage
	for _, ev := range job.History {
		if len(ev.Data) > 0 {
			out = append(out, ev.Data)
		}
	}
	return out
}

// traceIDOf extracts the 32-hex trace ID from a persisted traceparent
// ("" for absent or malformed values).
func traceIDOf(traceParent string) string {
	sc, err := obs.ParseTraceParent(traceParent)
	if err != nil {
		return ""
	}
	return sc.TraceID.String()
}

// campaignJobs counts a queued campaign's jobs without building their
// specs; a payload that does not decode counts 0.
func campaignJobs(payload json.RawMessage) int {
	var p campaignPayload
	if err := json.Unmarshal(payload, &p); err != nil {
		return 0
	}
	return p.Request.Jobs()
}

// specsFromPayload rebuilds a queued campaign's specs; on any error it
// returns no specs (the worker fails the job cleanly when it leases it).
func specsFromPayload(payload json.RawMessage) []campaign.Spec {
	var p campaignPayload
	if err := json.Unmarshal(payload, &p); err != nil {
		return nil
	}
	specList, err := cluster.BuildSpecs(p.Request, p.Seed)
	if err != nil {
		return nil
	}
	return specList
}

// --- request/response shapes -----------------------------------------

// campaignRequest is the POST /v1/campaigns body; the shape (with its
// custom machine definitions) lives in internal/cluster.
type campaignRequest = cluster.CampaignRequest

// --- handlers ---------------------------------------------------------

func (s *server) handleCreateCampaign(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		w.Header().Set("Retry-After", s.retryAfter())
		httpError(w, http.StatusServiceUnavailable, codeDraining,
			"daemon is shutting down; resubmit to its successor")
		return
	}

	// A campaign request is small; anything bigger is hostile or broken.
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	var req campaignRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, "bad request body: %v", err)
		return
	}
	seed := req.Seed
	if seed == 0 {
		seed = 42
	}
	// BuildSpecs is a pure function of (request, seed) shared with every
	// worker, so both sides derive identical specs for one payload.
	specList, err := cluster.BuildSpecs(req, seed)
	if err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}

	// The queue record carries the request's trace context and ID so
	// queue/dispatch/campaign spans and transition logs stay parented to
	// this request — across the async handoff and across restarts. The
	// persisted parent is the *server span*, so the whole downstream tree
	// roots at the inbound trace.
	opts := queue.SubmitOptions{
		Priority:       req.Priority,
		IdempotencyKey: r.Header.Get("Idempotency-Key"),
		TraceParent:    obs.TraceParentFrom(r.Context()),
		RequestID:      logging.RequestID(r.Context()),
	}

	payload, err := json.Marshal(campaignPayload{Request: req, Seed: seed})
	if err != nil {
		httpError(w, http.StatusInternalServerError, codeInternal, "%v", err)
		return
	}
	_, ssp := obs.Start(r.Context(), "queue.submit", obs.Int("priority", int64(opts.Priority)))
	job, dup, err := s.q.Submit(payload, opts)
	ssp.SetError(err)
	if err == nil {
		ssp.SetAttr("campaign", job.ID)
	}
	ssp.End()
	if errors.Is(err, queue.ErrFull) {
		w.Header().Set("Retry-After", s.retryAfter())
		httpError(w, http.StatusTooManyRequests, codeOverloaded,
			"queue is full (%d pending); retry later", s.q.StatsSnapshot().Pending)
		return
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, codeInternal, "%v", err)
		return
	}

	status := "queued"
	if dup {
		// The original submission's campaign answers for the duplicate.
		w.Header().Set("Idempotency-Replayed", "true")
		status = campaignStatus(job.State)
	} else {
		s.logTransition(job.ID, "", "queued", "jobs", len(specList), "priority", job.Priority)
	}

	w.Header().Set("Location", "/v1/campaigns/"+job.ID)
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":     job.ID,
		"status": status,
		"jobs":   len(specList),
		"url":    "/v1/campaigns/" + job.ID,
		"events": "/v1/campaigns/" + job.ID + "/events",
	})
}

// handleCancelCampaign cancels a campaign in the queue, leased or not.
// A queued one simply ends ("cancelled", 200). A leased one's lease dies
// with it in the queue: an in-process holder sees its LeaseEnded channel
// close at once, a remote holder learns at its next heartbeat, and
// either stops without reporting — the response says "cancelling" (202)
// while the work unwinds.
func (s *server) handleCancelCampaign(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.q.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "no campaign %q", id)
		return
	}
	if job.State.Terminal() {
		httpError(w, http.StatusConflict, codeConflict, "campaign %s already %s", id, job.State)
		return
	}

	const msg = "cancelled by client"
	job, err := s.q.Cancel(id, msg)
	if err != nil {
		if errors.Is(err, queue.ErrBadState) {
			// The campaign finished since we read its status.
			httpError(w, http.StatusConflict, codeConflict, "campaign %s already finished", id)
			return
		}
		httpError(w, http.StatusInternalServerError, codeInternal, "%v", err)
		return
	}
	// The cancellation event names the worker whose lease died with it.
	holder := job.History[len(job.History)-1].Worker
	if holder == "" {
		s.logTransition(id, "queued", "cancelled")
		writeJSON(w, http.StatusOK, map[string]any{"id": id, "status": "cancelled"})
		return
	}
	s.logTransition(id, "running", "cancelled", "worker", holder)
	writeJSON(w, http.StatusAccepted, map[string]any{"id": id, "status": "cancelling"})
}

// handleGetQueue reports queue health: backlog depth, running (leased)
// campaigns, capacity and the drain flag.
func (s *server) handleGetQueue(w http.ResponseWriter, r *http.Request) {
	qs := s.q.StatsSnapshot()
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"depth":       qs.Pending,
		"capacity":    qs.Capacity,
		"running":     qs.Running,
		"max_running": s.cfg.maxRunning,
		"draining":    draining,
		"done":        qs.Done,
		"failed":      qs.Failed,
		"cancelled":   qs.Cancelled,
		"recovered":   qs.Recovered,
		"leased":      qs.Leased,
		"dispatch":    s.dispatch(),
	})
}

// campaignSummary is one row of the paginated campaign listing.
type campaignSummary struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Total  int    `json:"total"`
	Done   int    `json:"done"`
	URL    string `json:"url"`
}

// listLimits bound GET /v1/campaigns pagination: limit must be in
// [1, maxListLimit], offset must be >= 0.
const (
	defaultListLimit = 20
	maxListLimit     = 100
)

// queryInt parses an integer query parameter with a default.
func queryInt(r *http.Request, key string, def int) (int, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("%s %q is not an integer", key, raw)
	}
	return v, nil
}

// handleListCampaigns serves the paginated campaign index, newest
// first. Bounds are part of the v1 contract: limit in [1, 100] (default
// 20), offset >= 0; anything else is a bad_request.
func (s *server) handleListCampaigns(w http.ResponseWriter, r *http.Request) {
	limit, err := queryInt(r, "limit", defaultListLimit)
	if err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	offset, err := queryInt(r, "offset", 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	if limit < 1 || limit > maxListLimit {
		httpError(w, http.StatusBadRequest, codeBadRequest,
			"limit %d out of range [1, %d]", limit, maxListLimit)
		return
	}
	if offset < 0 {
		httpError(w, http.StatusBadRequest, codeBadRequest, "offset %d is negative", offset)
		return
	}

	jobs := s.q.Jobs()
	total := len(jobs)
	if offset > total {
		offset = total
	}
	end := offset + limit
	if end > total {
		end = total
	}
	page := make([]campaignSummary, 0, end-offset)
	for i := offset; i < end; i++ {
		job := jobs[total-1-i] // newest first
		jobsTotal, done := campaignProgress(job)
		page = append(page, campaignSummary{
			ID: job.ID, Status: campaignStatus(job.State), Total: jobsTotal, Done: done,
			URL: "/v1/campaigns/" + job.ID,
		})
	}
	resp := map[string]any{
		"campaigns": page,
		"total":     total,
		"limit":     limit,
		"offset":    offset,
	}
	if end < total {
		resp["next_offset"] = end
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCampaignEvents streams a campaign's progress as Server-Sent
// Events: every recorded event is sent (event: <kind>, data: JSON),
// then live events as the queue applies them, then a final "done" event
// carrying the terminal status. The stream ends when the campaign
// finishes, the client disconnects, or the daemon shuts down.
func (s *server) handleCampaignEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	changed := s.q.Changed()
	job, ok := s.q.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "no campaign %q", id)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, codeInternal, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	s.om.sseSubs.Inc()
	defer s.om.sseSubs.Dec()

	var sent uint64 // Seq of the last event written
	for {
		wrote := false
		for _, ev := range job.History {
			if len(ev.Data) == 0 || ev.Seq <= sent {
				continue
			}
			sent = ev.Seq
			wrote = true
			if _, werr := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, ev.Data); werr != nil {
				// The subscriber's connection is gone; every remaining
				// event for this stream is undeliverable.
				s.om.sseDropped.Inc()
				return
			}
		}
		if wrote {
			fl.Flush()
		}
		if job.State.Terminal() {
			total, done := campaignProgress(job)
			final := map[string]any{"status": campaignStatus(job.State), "done": done, "total": total}
			if job.Error != "" {
				final["err"] = job.Error
			}
			data, _ := json.Marshal(final)
			fmt.Fprintf(w, "event: done\ndata: %s\n\n", data)
			fl.Flush()
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		case <-s.baseCtx.Done():
			return
		case <-time.After(15 * time.Second):
			// Heartbeat comment so idle streams survive proxies.
			fmt.Fprint(w, ": heartbeat\n\n")
			fl.Flush()
		}
		changed = s.q.Changed()
		if job, ok = s.q.Get(id); !ok {
			return // evicted from the queue mid-stream
		}
	}
}

// campaignTraceJSON is one row of the campaign trace index.
type campaignTraceJSON struct {
	Job                int    `json:"job"`
	Name               string `json:"name"`
	MachineFingerprint string `json:"machine_fingerprint"`
	Available          bool   `json:"available"`
	Bytes              int64  `json:"bytes,omitempty"`
	URL                string `json:"url,omitempty"`
}

// handleGetCampaignTrace serves a campaign's recorded timing traces:
// without a query it returns a JSON index of the campaign's jobs and
// their trace availability; with ?job=N it streams job N's binary trace.
func (s *server) handleGetCampaignTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.q.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "no campaign %q", id)
		return
	}
	specs := specsFromPayload(job.Payload)

	if jobStr := r.URL.Query().Get("job"); jobStr != "" {
		job, err := strconv.Atoi(jobStr)
		if err != nil || job < 0 || job >= len(specs) {
			httpError(w, http.StatusBadRequest, codeBadRequest, "job %q out of range [0, %d)", jobStr, len(specs))
			return
		}
		s.serveTrace(w, specs[job].MachineFingerprint())
		return
	}

	index := make([]campaignTraceJSON, 0, len(specs))
	for i, spec := range specs {
		fp := spec.MachineFingerprint()
		row := campaignTraceJSON{Job: i, Name: spec.Name, MachineFingerprint: fp}
		if n, ok := s.st.StatTrace(fp); ok {
			row.Available = true
			row.Bytes = n
			row.URL = fmt.Sprintf("/v1/campaigns/%s/trace?job=%d", id, i)
		}
		index = append(index, row)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":      id,
		"tracing": s.cfg.tracing,
		"traces":  index,
	})
}

// handleGetTrace serves a stored trace directly by machine fingerprint,
// the content-addressed sibling of GET /v1/mappings/{fingerprint}.
func (s *server) handleGetTrace(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fingerprint")
	if !store.ValidFingerprint(fp) {
		httpError(w, http.StatusBadRequest, codeBadRequest, "malformed fingerprint %q", fp)
		return
	}
	s.serveTrace(w, fp)
}

func (s *server) serveTrace(w http.ResponseWriter, fp string) {
	data, ok, err := s.st.GetTrace(fp)
	if err != nil {
		httpError(w, http.StatusInternalServerError, codeInternal, "%v", err)
		return
	}
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "no trace for %s (is the daemon running with -trace?)", fp)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", fp+".trace"))
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}

func (s *server) handleGetCampaign(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.q.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "no campaign %q", id)
		return
	}
	total, done := campaignProgress(job)
	resp := map[string]any{
		"id":     job.ID,
		"status": campaignStatus(job.State),
		"total":  total,
		"done":   done,
		"events": campaignEvents(job),
	}
	if len(job.Result) > 0 {
		resp["report"] = job.Result
	}
	if job.Error != "" {
		resp["err"] = job.Error
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleGetMapping serves a cached mapping by machine fingerprint. The
// resource is content-addressed and immutable, so the fingerprint itself
// is the ETag: a client revalidating with If-None-Match gets 304 without
// the store (or the disk) being consulted at all — if the client holds a
// representation of this fingerprint, it is by construction current.
// A cold miss is answered by the store's in-memory segment index, so
// repeated probes for unknown fingerprints stay off the disk too.
func (s *server) handleGetMapping(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fingerprint")
	if !store.ValidFingerprint(fp) {
		httpError(w, http.StatusBadRequest, codeBadRequest, "malformed fingerprint %q", fp)
		return
	}
	etag := `"` + fp + `"`
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		w.Header().Set("ETag", etag)
		w.Header().Set("Cache-Control", "max-age=31536000, immutable")
		w.WriteHeader(http.StatusNotModified)
		return
	}
	rec, ok, err := s.st.Get(fp)
	if err != nil {
		httpError(w, http.StatusInternalServerError, codeInternal, "%v", err)
		return
	}
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "no mapping for %s", fp)
		return
	}
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "max-age=31536000, immutable")
	writeJSON(w, http.StatusOK, rec)
}

// etagMatch implements If-None-Match comparison: a comma-separated list
// of entity tags, "*" matching anything, weak prefixes compared
// weakly (fine for an immutable resource).
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, candidate := range strings.Split(header, ",") {
		candidate = strings.TrimSpace(candidate)
		candidate = strings.TrimPrefix(candidate, "W/")
		if candidate == "*" || candidate == etag {
			return true
		}
	}
	return false
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	qs := s.q.StatsSnapshot()
	ss := s.st.StatsSnapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"campaigns": qs.Pending + qs.Running + qs.Done + qs.Failed + qs.Cancelled,
		// Top-level probe fields; the full snapshots nest below.
		"queue_depth":   qs.Pending,
		"cache_entries": ss.Entries,
		"store":         ss,
		"queue":         qs,
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// v1 error codes. Every error response carries the uniform envelope
// {"error":{"code":<code>,"message":<human text>}}.
const (
	codeBadRequest = "bad_request"
	codeNotFound   = "not_found"
	codeOverloaded = "overloaded"
	codeDraining   = "draining"
	codeConflict   = "conflict"
	codeInternal   = "internal"
	// codeLeaseLost tells a cluster worker its lease expired, was
	// cancelled or was re-granted: stop the job and report nothing
	// further.
	codeLeaseLost = "lease_lost"
)

// errorEnvelope is the uniform v1 error shape.
type errorEnvelope struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func httpError(w http.ResponseWriter, status int, code string, format string, args ...any) {
	writeJSON(w, status, errorEnvelope{Error: errorDetail{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}
