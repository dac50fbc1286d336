// The coordinator side of the cluster subsystem: the lease operations
// every worker goes through — grant, heartbeat, progress, complete,
// fail — the /v1/cluster handlers that serve them
// to remote workers, the worker registry, the lease-expiry sweeper and
// the dramdig_cluster_* metric families. The protocol and its wire
// shapes live in internal/cluster; the queue owns lease durability
// (fencing tokens, WAL-backed expiry-requeue), the end of every lease
// and the campaign history. In-process workers call the same operations
// directly (inprocess.go) and watch the queue's LeaseEnded channel, so
// a cancel or an expiry stops them at once.
//
// Exactly-once across worker death: a worker that stops heartbeating
// loses its lease after one TTL; the sweeper requeues the job, the next
// worker finds the dead worker's finished jobs in the result store, and
// the dead worker's late completion is fenced off by its stale token. A
// coordinator restart requeues every remotely leased job the same way
// — surviving workers' heartbeats come back lease_lost and they
// abandon, so no job ever completes twice.

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"dramdig/internal/campaign"
	"dramdig/internal/cluster"
	"dramdig/internal/metrics"
	"dramdig/internal/obs"
	"dramdig/internal/queue"
	"dramdig/internal/store"
	"dramdig/internal/trace"
)

// defaultLeaseTTL is the heartbeat deadline handed to workers when the
// operator doesn't set -lease-ttl. A dead worker costs at most one TTL
// of lost time before its job requeues.
const defaultLeaseTTL = 30 * time.Second

// reapAfterTTLs is how many silent lease TTLs a worker with no active
// leases stays live in the registry before being reaped.
const reapAfterTTLs = 10

// workerInfo is the registry's record of one worker. Its lease count
// is the queue's (queue.LeasesByOwner).
type workerInfo struct {
	name      string
	lastSeen  time.Time
	live      bool
	completed uint64
	failed    uint64
	// inProcess marks this daemon's own workers: alive as long as the
	// daemon, so never reaped for silence while they wait for work.
	inProcess bool
}

// clusterState tracks registered workers and the cluster metric
// counters. All mutation goes through its mutex.
type clusterState struct {
	mu      sync.Mutex
	workers map[string]*workerInfo

	// fed holds the latest metrics snapshot per worker; its entries live
	// and die with the worker registry (see reap).
	fed *metrics.Federation

	granted     *metrics.Counter
	heartbeats  *metrics.Counter
	rejections  *metrics.Counter
	completions *metrics.Counter
	failures    *metrics.Counter
	results     *metrics.Counter
	traces      *metrics.Counter
	spans       *metrics.Counter
	snapshots   *metrics.Counter
}

func newClusterState(reg *metrics.Registry, q *queue.Queue) *clusterState {
	cl := &clusterState{
		workers: make(map[string]*workerInfo),
		fed:     metrics.NewFederation(),
		granted: reg.Counter("dramdig_cluster_leases_granted_total",
			"Job leases granted to cluster workers.", nil),
		heartbeats: reg.Counter("dramdig_cluster_heartbeats_total",
			"Lease heartbeats accepted.", nil),
		rejections: reg.Counter("dramdig_cluster_lease_rejections_total",
			"Lease-fenced requests rejected (stale token or expired lease).", nil),
		completions: reg.Counter("dramdig_cluster_completions_total",
			"Campaigns completed by cluster workers.", nil),
		failures: reg.Counter("dramdig_cluster_failures_total",
			"Campaigns failed by cluster workers.", nil),
		results: reg.Counter("dramdig_cluster_results_uploaded_total",
			"Result records uploaded by workers into the store.", nil),
		traces: reg.Counter("dramdig_cluster_traces_uploaded_total",
			"Timing traces uploaded by workers into the store.", nil),
		spans: reg.Counter("dramdig_cluster_spans_ingested_total",
			"Worker spans ingested into the coordinator's tracer.", nil),
		snapshots: reg.Counter("dramdig_cluster_metric_snapshots_total",
			"Worker metrics snapshots accepted into the federation.", nil),
	}
	reg.GaugeFunc("dramdig_cluster_workers",
		"Cluster workers currently live in the registry.", nil,
		func() float64 { return float64(cl.liveWorkers()) })
	reg.GaugeFunc("dramdig_cluster_leases_active",
		"Leases currently held by cluster workers.", nil,
		func() float64 { return float64(q.StatsSnapshot().Leased) })
	reg.CounterFunc("dramdig_cluster_leases_expired_total",
		"Leases expired by the sweeper (job requeued).", nil,
		func() float64 { return float64(q.StatsSnapshot().Expired) })
	return cl
}

// touch registers a worker or refreshes its liveness.
func (cl *clusterState) touch(name string) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	w := cl.workers[name]
	if w == nil {
		w = &workerInfo{name: name}
		cl.workers[name] = w
	}
	w.lastSeen = time.Now()
	w.live = true
}

// addInProcess registers one of this daemon's own workers.
func (cl *clusterState) addInProcess(name string) {
	cl.touch(name)
	cl.adjust(name, func(w *workerInfo) { w.inProcess = true })
}

// liveWorkers counts the workers draining the queue: this daemon's own
// plus the remote ones not yet reaped for silence.
func (cl *clusterState) liveWorkers() int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	n := 0
	for _, w := range cl.workers {
		if w.live {
			n++
		}
	}
	return n
}

// adjust updates a worker's registry record.
func (cl *clusterState) adjust(name string, fn func(w *workerInfo)) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if w := cl.workers[name]; w != nil {
		fn(w)
	}
}

// metricsInfo digests a worker's latest federated snapshot for its
// /v1/workers row; nil when the worker never shipped one.
func (cl *clusterState) metricsInfo(name string, now time.Time) *cluster.WorkerMetricsInfo {
	snap, at, ok := cl.fed.Info(name)
	if !ok {
		return nil
	}
	info := &cluster.WorkerMetricsInfo{
		AgeMillis: now.Sub(at).Milliseconds(),
		Families:  len(snap.Families),
	}
	info.Goroutines, _ = snap.Total("dramdig_go_goroutines")
	info.HeapAllocBytes, _ = snap.Total("dramdig_go_heap_alloc_bytes")
	info.EngineSamples, _ = snap.Total("dramdig_engine_samples_total")
	return info
}

// reap drops workers that have been silent past the silence window and
// hold no leases (leases counts them per worker): marked dead, rows
// retained for /v1/workers history.
func (cl *clusterState) reap(now time.Time, silence time.Duration, leases map[string]int) {
	cl.mu.Lock()
	var dead []string
	for _, w := range cl.workers {
		if w.live && !w.inProcess && leases[w.name] == 0 && now.Sub(w.lastSeen) > silence {
			w.live = false
			dead = append(dead, w.name)
		}
	}
	cl.mu.Unlock()
	for _, name := range dead {
		// A reaped worker's metrics leave the federated page with it —
		// stale samples would otherwise look like a live flat-lined node.
		cl.fed.Remove(name)
	}
}

// statuses renders the /v1/workers rows, sorted by name; leases counts
// each worker's active leases.
func (cl *clusterState) statuses(leases map[string]int) []cluster.WorkerStatus {
	now := time.Now()
	cl.mu.Lock()
	rows := make([]cluster.WorkerStatus, 0, len(cl.workers))
	for _, w := range cl.workers {
		rows = append(rows, cluster.WorkerStatus{
			Name: w.name,
			Live: w.live,
			// An age, not a timestamp: meaningful to any reader without
			// clock agreement with the coordinator.
			LastHeartbeatAgeMillis: now.Sub(w.lastSeen).Milliseconds(),
			ActiveLeases:           leases[w.name],
			Completed:              w.completed,
			Failed:                 w.failed,
		})
	}
	cl.mu.Unlock()
	for i := range rows {
		rows[i].Metrics = cl.metricsInfo(rows[i].Name, now)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// --- lease operations -------------------------------------------------

// errDraining refuses new leases while the daemon shuts down.
var errDraining = errors.New("daemon is shutting down; no new leases")

// lease grants the next pending job to worker: the one lease path,
// behind POST /v1/cluster/lease and the in-process workers alike.
// Draining refuses new leases (errDraining) while heartbeats and
// completions for leases already out still land. ok is false when
// nothing is pending.
func (s *server) lease(worker string) (*cluster.LeaseGrant, bool, error) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		return nil, false, errDraining
	}
	s.cl.touch(worker)

	job, ok, err := s.q.Lease(worker, s.cfg.leaseTTL)
	if err != nil || !ok {
		return nil, false, err
	}
	leased := time.Now()
	s.cl.granted.Inc()
	total := campaignJobs(job.Payload)

	// Re-enter the submitting request's trace: queue.wait is
	// reconstructed from the persisted submission instant, and
	// scheduler.dispatch covers the grant. The worker's campaign.run
	// parents under the dispatch span.
	traceParent := job.TraceParent
	if s.tracer != nil {
		tctx := obs.WithTracer(s.baseCtx, s.tracer)
		if sc, perr := obs.ParseTraceParent(job.TraceParent); perr == nil {
			tctx = obs.WithSpanContext(tctx, sc)
		}
		if job.SubmittedUnixNano > 0 {
			_, wsp := obs.Start(tctx, "queue.wait", obs.KV("campaign", job.ID),
				obs.Int("attempt", int64(job.Attempts)))
			wsp.SetStart(time.Unix(0, job.SubmittedUnixNano))
			wsp.EndAt(leased)
		}
		_, dsp := obs.Start(tctx, "scheduler.dispatch", obs.KV("campaign", job.ID),
			obs.KV("worker", worker), obs.Int("jobs", int64(total)),
			obs.Int("attempt", int64(job.Attempts)))
		dsp.SetStart(leased)
		traceParent = dsp.Context().TraceParent()
		defer dsp.End()
	}

	s.logTransition(job.ID, "queued", "running",
		"worker", worker, "jobs", total, "attempt", job.Attempts)
	return &cluster.LeaseGrant{
		ID:          job.ID,
		Payload:     job.Payload,
		Attempts:    job.Attempts,
		Priority:    job.Priority,
		Token:       job.LeaseToken,
		TTLMillis:   s.cfg.leaseTTL.Milliseconds(),
		TraceParent: traceParent,
		RequestID:   job.RequestID,
		// The queue made the channel before Lease returned, so a cancel
		// or an expiry racing this grant still closes it.
		Revoked: job.LeaseEnded(),
	}, true, nil
}

// fenced counts a lease-fencing rejection (stale token, expired or
// cancelled lease) and marks it cluster.ErrLeaseLost, the one error a
// worker acts on.
func (s *server) fenced(err error) error {
	if errors.Is(err, queue.ErrLeaseExpired) || errors.Is(err, queue.ErrStaleLease) {
		s.cl.rejections.Inc()
		return fmt.Errorf("%w: %w", cluster.ErrLeaseLost, err)
	}
	return err
}

// heartbeat extends a lease; a metrics snapshot riding along lands in
// the federation.
func (s *server) heartbeat(id, worker, token string, snap json.RawMessage) error {
	if _, err := s.q.Heartbeat(id, worker, token, s.cfg.leaseTTL); err != nil {
		return s.fenced(err)
	}
	s.cl.heartbeats.Inc()
	s.cl.adjust(worker, func(wi *workerInfo) { wi.lastSeen = time.Now() })
	s.ingestSnapshot(worker, snap)
	return nil
}

// ingestSnapshot decodes one worker's shipped metrics snapshot into the
// federation. A snapshot that does not decode or names an invalid
// family, kind or label is refused and logged, and the worker's
// previous one stays: telemetry never fails a heartbeat or completion.
func (s *server) ingestSnapshot(worker string, raw json.RawMessage) {
	if len(raw) == 0 {
		return
	}
	if err := s.cl.fed.Update(worker, raw, time.Now()); err != nil {
		s.log.Warn("metrics snapshot refused", "worker", worker, "err", err)
		return
	}
	s.cl.snapshots.Inc()
}

// progress records one per-job event of a leased campaign in its queue
// history, fenced by the lease token.
func (s *server) progress(id, worker, token string, ev campaign.Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	return s.fenced(s.q.Progress(id, worker, token, string(ev.Kind), data))
}

// complete records a worker's finished campaign: terminal queue state
// with the report, and the shipped spans into the tracer.
func (s *server) complete(id, worker, token string, report json.RawMessage, spans []obs.SpanData, snap json.RawMessage) error {
	// The holder's telemetry lands before the campaign reads "done", so
	// a reader that sees it done finds the worker's spans and metrics;
	// the completion snapshot is often a short campaign's only one.
	// CompleteLease below stays the fence for the outcome.
	if job, ok := s.q.Get(id); ok && job.LeaseToken != "" && job.LeaseOwner == worker && job.LeaseToken == token {
		s.ingestSnapshot(worker, snap)
		if s.tracer != nil && len(spans) > 0 {
			s.cl.spans.Add(uint64(s.tracer.Ingest(spans...)))
		}
	}
	if err := s.q.CompleteLease(id, worker, token, report); err != nil {
		return s.fenced(err)
	}
	s.cl.completions.Inc()
	s.cl.adjust(worker, func(wi *workerInfo) {
		wi.completed++
		wi.lastSeen = time.Now()
	})
	s.logTransition(id, "running", "done", "worker", worker)
	return nil
}

// fail records a worker's failed campaign.
func (s *server) fail(id, worker, token, msg string) error {
	if err := s.q.FailLease(id, worker, token, msg); err != nil {
		return s.fenced(err)
	}
	s.cl.failures.Inc()
	s.cl.adjust(worker, func(wi *workerInfo) {
		wi.failed++
		wi.lastSeen = time.Now()
	})
	s.logTransition(id, "running", "failed", "worker", worker, "err", msg)
	return nil
}

// --- /v1/cluster handlers ---------------------------------------------

// handleClusterLease grants the next pending job to the requesting
// worker (204 when nothing is pending). A draining coordinator answers
// 503 + Retry-After — the cluster mirror of the POST /v1/campaigns
// drain behaviour.
func (s *server) handleClusterLease(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, 1<<16)
	var req cluster.LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Worker == "" {
		httpError(w, http.StatusBadRequest, codeBadRequest, "lease request needs a worker name")
		return
	}
	g, ok, err := s.lease(req.Worker)
	switch {
	case errors.Is(err, errDraining):
		w.Header().Set("Retry-After", s.retryAfter())
		httpError(w, http.StatusServiceUnavailable, codeDraining, "%v", err)
	case err != nil:
		httpError(w, http.StatusInternalServerError, codeInternal, "%v", err)
	case !ok:
		w.WriteHeader(http.StatusNoContent)
	default:
		writeJSON(w, http.StatusOK, g)
	}
}

// leaseError maps a lease operation's error onto the wire: unknown job,
// lease fencing rejection (the lease_lost contract), or internal.
// Returns false when there was no error.
func leaseError(w http.ResponseWriter, err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, queue.ErrNotFound):
		httpError(w, http.StatusNotFound, codeNotFound, "%v", err)
	case errors.Is(err, cluster.ErrLeaseLost):
		httpError(w, http.StatusConflict, codeLeaseLost, "%v", err)
	default:
		httpError(w, http.StatusInternalServerError, codeInternal, "%v", err)
	}
	return true
}

// handleClusterHeartbeat extends a lease. Heartbeats are accepted
// during drain: leases already out are allowed to land.
func (s *server) handleClusterHeartbeat(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	r.Body = http.MaxBytesReader(w, r.Body, 4<<20)
	var req cluster.HeartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, "bad heartbeat body: %v", err)
		return
	}
	if leaseError(w, s.heartbeat(id, req.Worker, req.Token, req.Metrics)) {
		return
	}
	writeJSON(w, http.StatusOK, cluster.HeartbeatResponse{
		TTLMillis: s.cfg.leaseTTL.Milliseconds(),
	})
}

// handleClusterProgress records one per-job event of a leased campaign
// (204). Like heartbeats, progress is accepted during drain.
func (s *server) handleClusterProgress(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	r.Body = http.MaxBytesReader(w, r.Body, 1<<16)
	var req cluster.ProgressRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, "bad progress body: %v", err)
		return
	}
	if leaseError(w, s.progress(id, req.Worker, req.Token, req.Event)) {
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleClusterComplete records a worker's finished campaign.
func (s *server) handleClusterComplete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	r.Body = http.MaxBytesReader(w, r.Body, 32<<20)
	var req cluster.CompleteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, "bad completion body: %v", err)
		return
	}
	if leaseError(w, s.complete(id, req.Worker, req.Token, req.Report, req.Spans, req.Metrics)) {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "status": "done"})
}

// handleClusterFail records a worker's failed campaign.
func (s *server) handleClusterFail(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	var req cluster.FailRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, "bad failure body: %v", err)
		return
	}
	if leaseError(w, s.fail(id, req.Worker, req.Token, req.Error)) {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "status": "failed"})
}

// handleClusterUploadResult stores a worker-computed result record
// under its machine fingerprint — the same record an in-process worker
// stores directly, so local and remote campaigns are indistinguishable
// to GET /v1/mappings/{fp}.
func (s *server) handleClusterUploadResult(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fingerprint")
	if !store.ValidFingerprint(fp) {
		httpError(w, http.StatusBadRequest, codeBadRequest, "malformed fingerprint %q", fp)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, 4<<20)
	var rec store.Record
	if err := json.NewDecoder(r.Body).Decode(&rec); err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, "bad record body: %v", err)
		return
	}
	if rec.Fingerprint != fp {
		httpError(w, http.StatusBadRequest, codeBadRequest,
			"record fingerprint %q does not match path %q", rec.Fingerprint, fp)
		return
	}
	// Decoding validated the mapping; its fingerprint is checked here,
	// once per upload, so the store's read path never re-hashes.
	if rec.Mapping != nil && rec.MappingFingerprint != rec.Mapping.Fingerprint() {
		httpError(w, http.StatusBadRequest, codeBadRequest,
			"mapping_fingerprint %q is not the mapping's fingerprint", rec.MappingFingerprint)
		return
	}
	if err := s.st.Put(&rec); err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	s.cl.results.Inc()
	writeJSON(w, http.StatusOK, map[string]any{"fingerprint": fp, "stored": true})
}

// handleClusterUploadTrace stores a worker-recorded timing trace under
// its machine fingerprint, overwriting atomically like an in-process
// worker's store.TraceWriter does. Only the preamble is parsed: the body
// must be a trace whose header names the path's machine.
func (s *server) handleClusterUploadTrace(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fingerprint")
	if !store.ValidFingerprint(fp) {
		httpError(w, http.StatusBadRequest, codeBadRequest, "malformed fingerprint %q", fp)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, "read trace body: %v", err)
		return
	}
	tr, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	if got := tr.Header().Machine.Fingerprint; got != fp {
		httpError(w, http.StatusBadRequest, codeBadRequest,
			"trace machine fingerprint %q does not match path %q", got, fp)
		return
	}
	if err := s.st.PutTrace(fp, data); err != nil {
		httpError(w, http.StatusInternalServerError, codeInternal, "%v", err)
		return
	}
	s.cl.traces.Inc()
	writeJSON(w, http.StatusOK, map[string]any{"fingerprint": fp, "bytes": len(data)})
}

// handleGetWorkers reports the worker registry: liveness (as heartbeat
// age), lease and outcome counts, and a digest of its last metrics
// snapshot.
func (s *server) handleGetWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"workers":      s.cl.statuses(s.q.LeasesByOwner()),
		"dispatch":     s.dispatch(),
		"lease_ttl_ms": s.cfg.leaseTTL.Milliseconds(),
	})
}

// handleClusterMetrics serves the federated exposition page: every
// worker's last shipped snapshot re-rendered as one scrape with an
// `instance` label per sample. The coordinator's own metrics stay on
// /metrics — the two pages answer different questions.
func (s *server) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.cl.fed.WritePrometheus(w); err != nil {
		s.log.Warn("cluster metrics write failed", "err", err)
	}
}

// sweepLeases expires overdue leases on a timer: each expired job goes
// back to "queued" for the next worker to pick up.
// It also reaps long-silent remote workers. Exits with the base
// context.
func (s *server) sweepLeases() {
	interval := s.cfg.leaseTTL / 4
	if interval < 25*time.Millisecond {
		interval = 25 * time.Millisecond
	}
	if interval > 5*time.Second {
		interval = 5 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case now := <-t.C:
			lapsed, err := s.q.ExpireLeases(now)
			if err != nil {
				s.log.Error("lease sweep failed", "err", err)
				continue
			}
			for _, job := range lapsed {
				s.logTransition(job.ID, "running", "queued",
					"reason", "lease expired", "worker", job.LeaseOwner, "attempt", job.Attempts)
			}
			s.cl.reap(now, reapAfterTTLs*s.cfg.leaseTTL, s.q.LeasesByOwner())
		}
	}
}
