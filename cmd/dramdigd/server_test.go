package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dramdig/internal/campaign"
	"dramdig/internal/queue"
	"dramdig/internal/store"
)

func newTestServer(t *testing.T) *server {
	t.Helper()
	return newTestServerWith(t, queue.Config{}, serverConfig{maxRunning: defaultMaxRunning})
}

// newTestServerWith builds a daemon handler over a fresh store and the
// given queue/server configuration, with lifecycle cleanup: the base
// context dies with the test, stopping the in-process workers.
func newTestServerWith(t *testing.T, qcfg queue.Config, scfg serverConfig) *server {
	t.Helper()
	st, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := queue.Open(qcfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if scfg.workers == 0 {
		scfg.workers = 2
	}
	return newServer(ctx, st, q, scfg)
}

// setRunner replaces campaign.Run in every in-process worker — the
// workers' test seam. Call it before the first submission.
func setRunner(srv *server, run func(context.Context, []campaign.Spec, campaign.Config) (*campaign.Report, error)) {
	for _, w := range srv.workers {
		w.RunCampaign = run
	}
}

func doJSON(t *testing.T, srv http.Handler, method, path, body string) (int, map[string]any) {
	t.Helper()
	var r *http.Request
	if body != "" {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	} else {
		r = httptest.NewRequest(method, path, nil)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	var m map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatalf("%s %s: non-JSON response %q", method, path, w.Body.String())
	}
	return w.Code, m
}

// terminalStatus reports whether a campaign status is final.
func terminalStatus(status string) bool {
	return status == "done" || status == "failed" || status == "cancelled"
}

// waitDone polls the campaign endpoint until it reaches a terminal
// status (queued and running are both transient now).
func waitDone(t *testing.T, srv http.Handler, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		code, m := doJSON(t, srv, "GET", "/v1/campaigns/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("GET /v1/campaigns/%s: %d %v", id, code, m)
		}
		if status, _ := m["status"].(string); terminalStatus(status) {
			return m
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("campaign %s never finished", id)
	return nil
}

// TestDaemonHandlerValidation covers the request-surface error paths with
// the campaign runner stubbed out.
func TestDaemonHandlerValidation(t *testing.T) {
	srv := newTestServer(t)
	setRunner(srv, func(ctx context.Context, specs []campaign.Spec, cfg campaign.Config) (*campaign.Report, error) {
		t.Fatal("runner called for invalid request")
		return nil, nil
	})
	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/v1/campaigns", "{not json", http.StatusBadRequest},
		{"POST", "/v1/campaigns", "{}", http.StatusBadRequest},                // no machine source
		{"POST", "/v1/campaigns", `{"machines":[12]}`, http.StatusBadRequest}, // unknown setting
		{"POST", "/v1/campaigns", `{"custom":[{"standard":"DDR9"}]}`, http.StatusBadRequest},
		{"POST", "/v1/campaigns", `{"generated":100000000}`, http.StatusBadRequest}, // job-count bomb
		{"POST", "/v1/campaigns", `{"machines":[1],"generated":256}`, http.StatusBadRequest},
		{"POST", "/v1/campaigns", `{"machines":[-1],"generated":-100}`, http.StatusBadRequest},                                  // negative offset trick
		{"POST", "/v1/campaigns", `{"machines":[1],` + strings.Repeat(`"x":"y",`, 200000) + `"seed":1}`, http.StatusBadRequest}, // >1MiB body
		{"GET", "/v1/campaigns/c999", "", http.StatusNotFound},
		{"GET", "/v1/mappings/zz", "", http.StatusBadRequest},
		{"GET", "/v1/mappings/" + strings.Repeat("a", 64), "", http.StatusNotFound},
	} {
		code, m := doJSON(t, srv, tc.method, tc.path, tc.body)
		if code != tc.want {
			t.Errorf("%s %s: %d (want %d): %v", tc.method, tc.path, code, tc.want, m)
		}
	}
	if code, m := doJSON(t, srv, "GET", "/v1/healthz", ""); code != http.StatusOK || m["status"] != "ok" {
		t.Errorf("healthz: %d %v", code, m)
	}
}

// TestDaemonCampaignLifecycleFake drives the POST → poll → report flow
// with a stubbed runner that exercises the event plumbing.
func TestDaemonCampaignLifecycleFake(t *testing.T) {
	srv := newTestServer(t)
	setRunner(srv, func(ctx context.Context, specs []campaign.Spec, cfg campaign.Config) (*campaign.Report, error) {
		for i, s := range specs {
			cfg.OnEvent(campaign.Event{Kind: campaign.EventJobStarted, Job: s.Name, Index: i})
			cfg.OnEvent(campaign.Event{Kind: campaign.EventJobFinished, Job: s.Name, Index: i, Match: true})
		}
		// A minimal report: campaign.Run's aggregation is tested in its
		// own package; the daemon only relays it.
		return &campaign.Report{Total: len(specs), Succeeded: len(specs)}, nil
	})

	code, m := doJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1,2,3]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST /campaigns: %d %v", code, m)
	}
	id, _ := m["id"].(string)
	if id == "" {
		t.Fatalf("no campaign id in %v", m)
	}
	final := waitDone(t, srv, id)
	if final["status"] != "done" {
		t.Fatalf("status %v: %v", final["status"], final)
	}
	if got := final["done"].(float64); got != 3 {
		t.Errorf("done = %v, want 3", got)
	}
	events := final["events"].([]any)
	if len(events) != 6 {
		t.Errorf("%d events, want 6", len(events))
	}
	rep := final["report"].(map[string]any)
	if rep["succeeded"].(float64) != 3 {
		t.Errorf("report: %v", rep)
	}
}

// TestDaemonEndToEnd runs a real single-machine campaign twice: the first
// run executes the pipeline and fills the store; the second is served
// from cache, and the fingerprint from the report resolves through
// GET /mappings/{fp}.
func TestDaemonEndToEnd(t *testing.T) {
	srv := newTestServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func() map[string]any {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json",
			strings.NewReader(`{"machines":[4],"seed":42}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST: %d %v", resp.StatusCode, m)
		}
		return m
	}

	first := waitDone(t, srv, post()["id"].(string))
	if first["status"] != "done" {
		t.Fatalf("first campaign: %v", first)
	}
	job := first["report"].(map[string]any)["jobs"].([]any)[0].(map[string]any)
	if job["ok"] != true || job["match"] != true || job["cached"] == true {
		t.Fatalf("first run job: %v", job)
	}
	machineFP, _ := job["machine_fingerprint"].(string)
	if !store.ValidFingerprint(machineFP) {
		t.Fatalf("bad machine fingerprint %q", machineFP)
	}

	// Cache lookup over real HTTP.
	resp, err := http.Get(ts.URL + "/v1/mappings/" + machineFP)
	if err != nil {
		t.Fatal(err)
	}
	var rec store.Record
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /mappings: %d", resp.StatusCode)
	}
	if rec.Mapping == nil || rec.MachineName != "No.4" || !rec.Match {
		t.Fatalf("cached record: %+v", rec)
	}
	if rec.Mapping.Fingerprint() != job["mapping_fingerprint"].(string) {
		t.Error("mapping fingerprint mismatch between report and store")
	}

	// Second identical campaign: served from cache, pipeline not re-run.
	second := waitDone(t, srv, post()["id"].(string))
	job2 := second["report"].(map[string]any)["jobs"].([]any)[0].(map[string]any)
	if job2["cached"] != true {
		t.Fatalf("second run not cached: %v", job2)
	}
	stats := srv.st.StatsSnapshot()
	if stats.Computes != 1 {
		t.Errorf("pipeline computed %d times across two campaigns, want 1", stats.Computes)
	}
}

// TestDaemonShutdownCancelsCampaigns: cancelling the base context stops
// in-flight jobs and drain() returns — while the queue keeps the job in
// flight for the next boot instead of marking it failed, so the
// campaign still reads "running".
func TestDaemonShutdownCancelsCampaigns(t *testing.T) {
	st, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := queue.Open(queue.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv := newServer(ctx, st, q, serverConfig{workers: 2, maxRunning: defaultMaxRunning})

	started := make(chan struct{})
	setRunner(srv, func(ctx context.Context, specs []campaign.Spec, cfg campaign.Config) (*campaign.Report, error) {
		close(started)
		<-ctx.Done()
		return &campaign.Report{Total: len(specs)}, ctx.Err()
	})
	code, m := doJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST: %d %v", code, m)
	}
	<-started
	cancel()
	drained := make(chan struct{})
	go func() { srv.drain(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("drain hung after context cancellation")
	}
	id := m["id"].(string)
	final := doJSONmap(t, srv, "GET", "/v1/campaigns/"+id)
	if final["status"] != "running" {
		t.Errorf("abandoned campaign status %v, want running", final["status"])
	}
	// The queue deliberately still counts the job as in flight — that is
	// the record recovery resumes from at the next boot.
	if job, ok := q.Get(id); !ok || !job.State.InFlight() {
		t.Errorf("queue job after shutdown: ok=%v state=%v, want in-flight", ok, job.State)
	}
}

func doJSONmap(t *testing.T, srv http.Handler, method, path string) map[string]any {
	t.Helper()
	code, m := doJSON(t, srv, method, path, "")
	if code != http.StatusOK {
		t.Fatalf("%s %s: %d %v", method, path, code, m)
	}
	return m
}

// TestDaemonCampaignEviction: a long-lived daemon caps retained finished
// campaigns at the queue's KeepTerminal, oldest first, and keeps serving
// the newest.
func TestDaemonCampaignEviction(t *testing.T) {
	const keep = 16
	srv := newTestServerWith(t, queue.Config{KeepTerminal: keep}, serverConfig{maxRunning: defaultMaxRunning})
	setRunner(srv, func(ctx context.Context, specs []campaign.Spec, cfg campaign.Config) (*campaign.Report, error) {
		return &campaign.Report{Total: len(specs), Succeeded: len(specs)}, nil
	})
	var lastID string
	for i := 0; i < keep+10; i++ {
		code, m := doJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1]}`)
		if code != http.StatusAccepted {
			t.Fatalf("POST %d: %d %v", i, code, m)
		}
		lastID = m["id"].(string)
		waitDone(t, srv, lastID)
	}
	if n := len(srv.q.Jobs()); n > keep {
		t.Errorf("%d campaigns retained, want <= %d", n, keep)
	}
	if _, m := doJSON(t, srv, "GET", "/v1/campaigns?limit=100", ""); m["total"] != float64(keep) {
		t.Errorf("campaign index lists %v campaigns, want %d", m["total"], keep)
	}
	if code, _ := doJSON(t, srv, "GET", "/v1/campaigns/"+lastID, ""); code != http.StatusOK {
		t.Errorf("newest campaign evicted")
	}
	if code, _ := doJSON(t, srv, "GET", "/v1/campaigns/c1", ""); code != http.StatusNotFound {
		t.Errorf("oldest campaign not evicted")
	}
}

// TestDaemonBackpressure: campaigns beyond the running limit queue up
// (202, not 503); once the pending backlog hits the queue capacity the
// daemon answers 429 with a Retry-After hint, and accepts again after
// the backlog drains.
func TestDaemonBackpressure(t *testing.T) {
	srv := newTestServerWith(t, queue.Config{Capacity: 2}, serverConfig{maxRunning: 1})
	release := make(chan struct{})
	started := make(chan string, 8)
	setRunner(srv, func(ctx context.Context, specs []campaign.Spec, cfg campaign.Config) (*campaign.Report, error) {
		started <- specs[0].Name
		<-release
		return &campaign.Report{Total: len(specs), Succeeded: len(specs)}, nil
	})

	// First campaign occupies the single running slot...
	code, m := doJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST 0: %d %v", code, m)
	}
	ids := []string{m["id"].(string)}
	<-started // ...and has left the queue before the backlog fills.

	// Two more fill the pending backlog; both are accepted as queued.
	for i := 1; i <= 2; i++ {
		code, m := doJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1]}`)
		if code != http.StatusAccepted {
			t.Fatalf("POST %d: %d %v", i, code, m)
		}
		ids = append(ids, m["id"].(string))
	}

	// The backlog is full: 429, overloaded envelope, Retry-After hint.
	r := httptest.NewRequest("POST", "/v1/campaigns", strings.NewReader(`{"machines":[1]}`))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity POST: %d %s, want 429", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var envl map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &envl); err != nil {
		t.Fatal(err)
	}
	if e, _ := envl["error"].(map[string]any); e == nil || e["code"] != "overloaded" {
		t.Errorf("429 envelope: %v", envl)
	}

	close(release)
	for _, id := range ids {
		if final := waitDone(t, srv, id); final["status"] != "done" {
			t.Errorf("campaign %s: %v", id, final["status"])
		}
	}
	if code, _ := doJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1]}`); code != http.StatusAccepted {
		t.Errorf("POST after backlog drained rejected: %d", code)
	}
}

// TestDaemonRunsBurstConcurrently: with two in-process workers, two
// campaigns submitted back to back are both running before either
// finishes — one ready signal fans out across the idle workers.
func TestDaemonRunsBurstConcurrently(t *testing.T) {
	srv := newTestServerWith(t, queue.Config{}, serverConfig{maxRunning: 2})
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	setRunner(srv, func(ctx context.Context, specs []campaign.Spec, cfg campaign.Config) (*campaign.Report, error) {
		started <- struct{}{}
		<-release
		return &campaign.Report{Total: len(specs), Succeeded: len(specs)}, nil
	})
	var ids []string
	for _, body := range []string{`{"machines":[1]}`, `{"machines":[2]}`} {
		code, m := doJSON(t, srv, "POST", "/v1/campaigns", body)
		if code != http.StatusAccepted {
			t.Fatalf("POST: %d %v", code, m)
		}
		ids = append(ids, m["id"].(string))
	}
	for range ids {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			close(release)
			t.Fatal("the burst did not start both campaigns")
		}
	}
	for _, id := range ids {
		if m := doJSONmap(t, srv, "GET", "/v1/campaigns/"+id); m["status"] != "running" {
			t.Errorf("campaign %s: %v, want running", id, m["status"])
		}
	}
	if m := doJSONmap(t, srv, "GET", "/v1/queue"); m["running"] != float64(2) || m["depth"] != float64(0) {
		t.Errorf("queue during the burst: %v", m)
	}
	// The in-process workers are cluster workers like any other: each
	// holds one lease in the registry.
	rows, _ := doJSONmap(t, srv, "GET", "/v1/workers")["workers"].([]any)
	if len(rows) != 2 {
		t.Fatalf("worker registry: %v", rows)
	}
	for _, r := range rows {
		if rm := r.(map[string]any); rm["live"] != true || rm["active_leases"] != float64(1) {
			t.Errorf("in-process worker row: %v", rm)
		}
	}
	close(release)
	for _, id := range ids {
		if final := waitDone(t, srv, id); final["status"] != "done" {
			t.Errorf("campaign %s: %v", id, final["status"])
		}
	}
}
