// The worker-side HTTP client for the coordinator's cluster API — the
// Coordinator a worker process leases through. Every call decodes the
// daemon's uniform error envelope, and a 409 with code "lease_lost" maps
// to ErrLeaseLost — the one error a worker handles specially (abandon
// the job; it was cancelled or someone else owns it now).

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"dramdig/internal/campaign"
	"dramdig/internal/obs"
	"dramdig/internal/store"
)

// ErrLeaseLost means the coordinator no longer honors this worker's
// lease: it expired and was requeued or re-granted elsewhere, or the
// campaign was cancelled. The worker must stop the job and not report
// its outcome.
var ErrLeaseLost = errors.New("cluster: lease lost")

// Client talks to one coordinator over HTTP on behalf of one named
// worker. It implements Coordinator.
type Client struct {
	base   string
	worker string
	hc     *http.Client
}

// NewClient builds a client. base is the coordinator's URL
// ("http://host:8080"); hc nil gets a client with a sane timeout.
func NewClient(base, worker string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	return &Client{base: base, worker: worker, hc: hc}
}

// Worker returns the worker name this client leases as.
func (c *Client) Worker() string { return c.worker }

// do sends one request and decodes the response into out (nil to
// discard). body is nil, []byte (sent verbatim as octet-stream) or any
// other value (sent as JSON). Statuses outside okStatuses decode the
// error envelope; lease_lost becomes ErrLeaseLost.
func (c *Client) do(ctx context.Context, method, path string, body, out any, okStatuses ...int) (int, error) {
	var rd io.Reader
	contentType := ""
	switch b := body.(type) {
	case nil:
	case []byte:
		rd, contentType = bytes.NewReader(b), "application/octet-stream"
	default:
		data, err := json.Marshal(b)
		if err != nil {
			return 0, fmt.Errorf("cluster: encode %s: %w", path, err)
		}
		rd, contentType = bytes.NewReader(data), "application/json"
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, fmt.Errorf("cluster: %w", err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("cluster: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	for _, ok := range okStatuses {
		if resp.StatusCode != ok {
			continue
		}
		if out == nil || resp.StatusCode == http.StatusNoContent {
			// Read to EOF so the connection is reused.
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			return resp.StatusCode, nil
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("cluster: decode %s response: %w", path, err)
		}
		return resp.StatusCode, nil
	}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	msg := resp.Status
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&env); err == nil && env.Error.Message != "" {
		msg = env.Error.Message
	}
	if env.Error.Code == "lease_lost" {
		return resp.StatusCode, fmt.Errorf("%w: %s", ErrLeaseLost, msg)
	}
	return resp.StatusCode, fmt.Errorf("cluster: %s %s: %s (%s)", method, path, msg, resp.Status)
}

// Lease asks for the next job. ok is false when nothing is pending
// (204) or the coordinator is draining (503) — both mean "poll again
// later", not an error.
func (c *Client) Lease(ctx context.Context) (*LeaseGrant, bool, error) {
	var grant LeaseGrant
	code, err := c.do(ctx, http.MethodPost, "/v1/cluster/lease",
		LeaseRequest{Worker: c.worker}, &grant,
		http.StatusOK, http.StatusNoContent)
	if err != nil {
		if code == http.StatusServiceUnavailable {
			return nil, false, nil
		}
		return nil, false, err
	}
	if code == http.StatusNoContent {
		return nil, false, nil
	}
	return &grant, true, nil
}

// Ready returns nil: a remote coordinator cannot signal new work, so an
// idle worker polls.
func (c *Client) Ready() <-chan struct{} { return nil }

// Heartbeat renews the lease, shipping a metrics snapshot when snap is
// non-empty.
func (c *Client) Heartbeat(ctx context.Context, id, token string, snap json.RawMessage) error {
	_, err := c.do(ctx, http.MethodPost, "/v1/cluster/jobs/"+id+"/heartbeat",
		HeartbeatRequest{Worker: c.worker, Token: token, Metrics: snap}, nil,
		http.StatusOK)
	return err
}

// Complete reports a finished job: the campaign report, the worker's
// finished spans for the job's trace, and its final metrics snapshot.
func (c *Client) Complete(ctx context.Context, id, token string, report json.RawMessage, spans []obs.SpanData, snap json.RawMessage) error {
	_, err := c.do(ctx, http.MethodPost, "/v1/cluster/jobs/"+id+"/complete",
		CompleteRequest{Worker: c.worker, Token: token, Report: report, Spans: spans, Metrics: snap}, nil,
		http.StatusOK)
	return err
}

// Fail reports a failed job.
func (c *Client) Fail(ctx context.Context, id, token, msg string) error {
	_, err := c.do(ctx, http.MethodPost, "/v1/cluster/jobs/"+id+"/fail",
		FailRequest{Worker: c.worker, Token: token, Error: msg}, nil,
		http.StatusOK)
	return err
}

// Progress records one per-job event of the leased campaign.
func (c *Client) Progress(ctx context.Context, id, token string, ev campaign.Event) error {
	_, err := c.do(ctx, http.MethodPost, "/v1/cluster/jobs/"+id+"/progress",
		ProgressRequest{Worker: c.worker, Token: token, Event: ev}, nil,
		http.StatusNoContent)
	return err
}

// GetOrCompute reads fp's result from the coordinator's store or, on a
// miss, computes it and uploads it before returning — a job's result
// lands before the job counts as done, so completion never outruns
// results.
func (c *Client) GetOrCompute(ctx context.Context, fp string, compute func() (*store.Record, error)) (*store.Record, error) {
	if rec, ok, err := c.FetchResult(ctx, fp); err == nil && ok {
		return rec, nil
	}
	rec, err := compute()
	if err != nil {
		return nil, err
	}
	if err := c.UploadResult(ctx, rec); err != nil {
		return nil, fmt.Errorf("upload result %s: %w", fp, err)
	}
	return rec, nil
}

// TraceWriter buffers one attempt's timing trace and uploads it under
// fp on Close. Retried attempts overwrite, so the stored trace is the
// last attempt's complete recording.
func (c *Client) TraceWriter(ctx context.Context, fp string) (io.WriteCloser, error) {
	return &traceUploader{ctx: ctx, client: c, fp: fp}, nil
}

type traceUploader struct {
	ctx    context.Context
	client *Client
	fp     string
	buf    bytes.Buffer
}

func (u *traceUploader) Write(p []byte) (int, error) { return u.buf.Write(p) }

func (u *traceUploader) Close() error {
	return u.client.UploadTrace(u.ctx, u.fp, u.buf.Bytes())
}

// UploadResult puts one result record into the coordinator's
// content-addressed store.
func (c *Client) UploadResult(ctx context.Context, rec *store.Record) error {
	_, err := c.do(ctx, http.MethodPut, "/v1/cluster/results/"+rec.Fingerprint, rec, nil,
		http.StatusOK, http.StatusCreated)
	return err
}

// UploadTrace puts one binary timing trace into the coordinator's
// store, content-addressed by machine fingerprint.
func (c *Client) UploadTrace(ctx context.Context, fp string, data []byte) error {
	_, err := c.do(ctx, http.MethodPut, "/v1/cluster/traces/"+fp, data, nil,
		http.StatusOK, http.StatusCreated)
	return err
}

// FetchResult reads a cached result by machine fingerprint from the
// coordinator — the worker-side read-through that makes the
// coordinator's store the cluster's shared cache.
func (c *Client) FetchResult(ctx context.Context, fp string) (*store.Record, bool, error) {
	var rec store.Record
	code, err := c.do(ctx, http.MethodGet, "/v1/mappings/"+fp, nil, &rec, http.StatusOK)
	if err != nil {
		if code == http.StatusNotFound {
			return nil, false, nil
		}
		return nil, false, err
	}
	return &rec, true, nil
}
