// Package cluster is the coordinator/worker subsystem that executes
// every dramdigd campaign. A Worker leases queued campaign jobs, runs
// them through the campaign engine, renews its lease on a heartbeat and
// lands results and traces in the coordinator's content-addressed
// store. It reaches its coordinator through the
// Coordinator interface: worker processes (cmd/dramdig-worker) use the
// HTTP Client against the lease API under /v1/cluster, and dramdigd's
// own in-process workers (-max-running of them) make the same calls
// directly, with no HTTP and no JSON envelopes on the path.
//
// The protocol is five POSTs plus two PUTs:
//
//	POST /v1/cluster/lease                   lease the next pending job (204: nothing pending)
//	POST /v1/cluster/jobs/{id}/heartbeat     extend the lease, optionally shipping a metrics snapshot
//	POST /v1/cluster/jobs/{id}/progress      record one per-job event in the job's queue history
//	POST /v1/cluster/jobs/{id}/complete      finish: report + the worker's finished spans
//	POST /v1/cluster/jobs/{id}/fail          fail with a message
//	PUT  /v1/cluster/results/{fingerprint}   upload one store record (content-addressed)
//	PUT  /v1/cluster/traces/{fingerprint}    upload one binary timing trace
//
// Exactly-once flows from the queue's lease machinery: each grant
// carries a fencing token, missed heartbeats expire the lease and
// requeue the job, and a worker whose lease was re-granted elsewhere
// gets 409 {"error":{"code":"lease_lost"}} and abandons. The requeued
// job redoes nothing: results land in the store before a job counts as
// done, so the next worker finds every finished job there. Every worker, remote or in-process, leases in the queue's
// own order: highest priority first, then oldest. Workers keep no
// state between leases, so which worker takes a job does not matter.
//
// Trace context crosses the process boundary in both directions: the
// lease grant carries the submitting request's W3C traceparent, the
// worker parents its campaign spans under it, and the completion ships
// the worker's finished spans back for the coordinator's tracer to
// ingest — GET /v1/campaigns/{id}/spans then serves one tree spanning
// both processes.
package cluster

import (
	"encoding/json"

	"dramdig/internal/campaign"
	"dramdig/internal/obs"
)

// LeaseRequest is the POST /v1/cluster/lease body.
type LeaseRequest struct {
	// Worker is the worker's stable name — the lease owner and the
	// /v1/workers row key.
	Worker string `json:"worker"`
}

// LeaseGrant is the coordinator's 200 response to a lease request: one
// queued campaign job and everything needed to run it remotely.
type LeaseGrant struct {
	// ID is the campaign/job ID ("c7").
	ID string `json:"id"`
	// Payload is the queued campaign payload (cluster.Payload as JSON).
	Payload json.RawMessage `json:"payload"`
	// Attempts counts grants including this one (1 on the first run).
	Attempts int `json:"attempts"`
	Priority int `json:"priority,omitempty"`
	// Token fences every subsequent call for this grant.
	Token string `json:"token"`
	// TTLMillis is the heartbeat deadline: miss it and the lease
	// expires, requeueing the job.
	TTLMillis int64 `json:"ttl_ms"`
	// TraceParent is the W3C trace context of the grant's
	// scheduler.dispatch span, on the submitting request's trace; the
	// worker's campaign spans parent under it.
	TraceParent string `json:"traceparent,omitempty"`
	// RequestID is the submitting request's ID, for log correlation.
	RequestID string `json:"request_id,omitempty"`
	// Revoked is the queue's queue.Job.LeaseEnded channel: closed the
	// moment the queue ends the lease, whether the campaign completed,
	// failed, was cancelled or its lease expired. It never crosses the
	// wire, so only in-process workers see it; a remote worker learns
	// that its lease ended from its next heartbeat's lease_lost.
	Revoked <-chan struct{} `json:"-"`
}

// HeartbeatRequest is the POST .../heartbeat body.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
	Token  string `json:"token"`
	// Metrics is the worker's current metrics.Snapshot (JSON), piggybacked
	// on the heartbeat so fleet telemetry needs no extra connection.
	// Optional: coordinators ignore its absence, old workers never send it.
	Metrics json.RawMessage `json:"metrics,omitempty"`
}

// ProgressRequest is the POST .../progress body: one per-job event of a
// leased campaign, which the coordinator records in the job's history —
// the one history every campaign read and event stream is served from.
type ProgressRequest struct {
	Worker string         `json:"worker"`
	Token  string         `json:"token"`
	Event  campaign.Event `json:"event"`
}

// HeartbeatResponse acknowledges a heartbeat with the renewed TTL.
type HeartbeatResponse struct {
	TTLMillis int64 `json:"ttl_ms"`
}

// CompleteRequest is the POST .../complete body.
type CompleteRequest struct {
	Worker string `json:"worker"`
	Token  string `json:"token"`
	// Report is the campaign's API report shape (cluster.ReportJSON),
	// recorded as the queue job's terminal result.
	Report json.RawMessage `json:"report,omitempty"`
	// Spans are the worker's finished spans for this campaign's trace,
	// ingested into the coordinator's tracer so the span tree crosses
	// the process boundary.
	Spans []obs.SpanData `json:"spans,omitempty"`
	// Metrics is the worker's final metrics.Snapshot for this lease —
	// the completion is the last word a short-lived worker gets in, so
	// the federated page reflects its finished work. Optional.
	Metrics json.RawMessage `json:"metrics,omitempty"`
}

// FailRequest is the POST .../fail body.
type FailRequest struct {
	Worker string `json:"worker"`
	Token  string `json:"token"`
	Error  string `json:"error"`
}

// WorkerStatus is one row of GET /v1/workers.
type WorkerStatus struct {
	Name string `json:"name"`
	// Live is false once the worker has been silent long enough to be
	// reaped; its row stays for history.
	Live bool `json:"live"`
	// LastHeartbeatAgeMillis is how long ago the worker was last heard
	// from — an age, not a raw timestamp, so readers need no clock
	// agreement with the coordinator to judge liveness.
	LastHeartbeatAgeMillis int64 `json:"last_heartbeat_age_ms"`
	// ActiveLeases counts jobs this worker currently holds.
	ActiveLeases int    `json:"active_leases"`
	Completed    uint64 `json:"completed"`
	Failed       uint64 `json:"failed"`
	// Metrics summarizes the worker's last federated snapshot; nil until
	// the worker has shipped one.
	Metrics *WorkerMetricsInfo `json:"metrics,omitempty"`
}

// WorkerMetricsInfo is the fleet-status digest of one worker's latest
// metrics snapshot — enough to spot a hot or dying worker from
// GET /v1/workers without scraping the full federated page.
type WorkerMetricsInfo struct {
	// AgeMillis is how old the snapshot is.
	AgeMillis int64 `json:"age_ms"`
	// Families counts metric families in the snapshot.
	Families int `json:"families"`
	// Goroutines and HeapAllocBytes are the worker's Go runtime
	// self-metrics at snapshot time.
	Goroutines     float64 `json:"goroutines,omitempty"`
	HeapAllocBytes float64 `json:"heap_alloc_bytes,omitempty"`
	// EngineSamples is the worker's cumulative dramdig_engine_samples_total.
	EngineSamples float64 `json:"engine_samples,omitempty"`
}
