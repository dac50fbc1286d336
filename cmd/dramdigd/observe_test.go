// Tests for the daemon's observability surface: the metrics endpoint
// and its required families, request-ID plumbing, the dynamic
// Retry-After hint, the healthz body and SSE subscriber accounting
// under concurrent and misbehaving clients.

package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dramdig/internal/campaign"
	"dramdig/internal/queue"
)

// scrape fetches a metrics endpoint and returns the exposition body.
func scrape(t *testing.T, srv http.Handler, path string) string {
	t.Helper()
	r := httptest.NewRequest("GET", path, nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET %s: Content-Type %q", path, ct)
	}
	return w.Body.String()
}

// TestMetricsEndpoint: /v1/metrics (and the /metrics alias) serves every
// layer's families — the first scrape already carries the declared
// request families, and after a campaign the queue, store, campaign and
// HTTP counters have moved.
func TestMetricsEndpoint(t *testing.T) {
	srv := newTestServer(t)
	stubRunner(t, srv)

	// First scrape, before any other request: required families present.
	first := scrape(t, srv, "/v1/metrics")
	for _, fam := range []string{
		"dramdig_queue_depth",
		"dramdig_wal_fsync_seconds",
		"dramdig_store_hits_total",
		"dramdig_engine_samples_total",
		"dramdig_http_requests_total",
		"dramdig_sse_subscribers",
	} {
		if !strings.Contains(first, "# TYPE "+fam+" ") {
			t.Errorf("first scrape missing family %s", fam)
		}
	}

	code, m := doJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST: %d %v", code, m)
	}
	waitDone(t, srv, m["id"].(string))

	out := scrape(t, srv, "/metrics") // alias serves the same registry
	for _, want := range []string{
		`dramdig_http_requests_total{code="202",method="POST",route="/v1/campaigns"} 1`,
		"dramdig_queue_submitted_total 1",
		// The stub runner bypasses campaign.Run but emits its job
		// events, which the worker counts: one job started. The engine
		// never ran, so its samples read 0, which proves the engine
		// family is wired into the daemon's registry.
		"dramdig_campaign_jobs_started_total 1",
		"dramdig_engine_samples_total 0",
		`route="/v1/metrics"`, // the middleware observes the scrape itself
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestRequestIDEcho: every response carries X-Request-Id; a
// client-supplied ID is echoed, a missing one is minted, and two minted
// IDs differ.
func TestRequestIDEcho(t *testing.T) {
	srv := newTestServer(t)

	r := httptest.NewRequest("GET", "/v1/healthz", nil)
	r.Header.Set("X-Request-Id", "client-chose-this")
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	if got := w.Header().Get("X-Request-Id"); got != "client-chose-this" {
		t.Errorf("supplied request ID not echoed: %q", got)
	}

	var minted []string
	for i := 0; i < 2; i++ {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest("GET", "/v1/healthz", nil))
		id := w.Header().Get("X-Request-Id")
		if id == "" {
			t.Fatal("no X-Request-Id on response")
		}
		minted = append(minted, id)
	}
	if minted[0] == minted[1] {
		t.Errorf("minted IDs collide: %q", minted[0])
	}
}

// TestRetryAfterHint: the hint tracks backlog depth against drain
// capacity and stays a clamped, client-usable integer.
func TestRetryAfterHint(t *testing.T) {
	for _, tc := range []struct {
		depth, workers, want int
	}{
		{0, 8, 5},         // empty backlog: one drain period
		{8, 8, 10},        // one full wave ahead of us
		{100, 8, 67},      // deep backlog scales linearly
		{100, 1, 300},     // clamped at the ceiling
		{1 << 30, 4, 300}, // absurd depth still clamps
	} {
		if got := retryAfterSecondsHint(tc.depth, tc.workers); got != tc.want {
			t.Errorf("hint(%d, %d) = %d, want %d", tc.depth, tc.workers, got, tc.want)
		}
	}
	if got := retryAfterSecondsHint(3, 0); got < 1 || got > 300 {
		t.Errorf("hint with zero workers out of range: %d", got)
	}
}

// TestRetryAfterCountsRemoteWorkers: with no in-process workers the
// Retry-After hint drains the backlog at the rate of the live remote
// workers, here two, instead of a single slot.
func TestRetryAfterCountsRemoteWorkers(t *testing.T) {
	srv := newTestServerWith(t, queue.Config{Capacity: 2}, serverConfig{})
	for _, w := range []string{"w1", "w2"} {
		if _, ok := leaseAs(t, srv, w); ok {
			t.Fatalf("%s leased from an empty queue", w)
		}
	}
	for i := 1; i <= 2; i++ {
		if code, m := doJSON(t, srv, "POST", "/v1/campaigns", fmt.Sprintf(`{"machines":[1],"seed":%d}`, i)); code != http.StatusAccepted {
			t.Fatalf("POST %d: %d %v", i, code, m)
		}
	}
	w, m := postJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1],"seed":9}`, nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity POST: %d %v, want 429", w.Code, m)
	}
	if got, want := w.Header().Get("Retry-After"), strconv.Itoa(retryAfterSecondsHint(2, 2)); got != want {
		t.Errorf("Retry-After %q with two remote workers, want %q", got, want)
	}
}

// TestRejectionObservability: 429 responses carry the dynamic
// Retry-After hint (larger backlog, larger hint) and land in the
// rejection counter; draining 503s do too.
func TestRejectionObservability(t *testing.T) {
	srv := newTestServerWith(t, queue.Config{Capacity: 2}, serverConfig{maxRunning: 1})
	release := make(chan struct{})
	started := make(chan string, 8)
	setRunner(srv, func(ctx context.Context, specs []campaign.Spec, cfg campaign.Config) (*campaign.Report, error) {
		started <- specs[0].Name
		<-release
		return &campaign.Report{Total: len(specs), Succeeded: len(specs)}, nil
	})
	defer close(release)

	code, m := doJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST 0: %d %v", code, m)
	}
	<-started
	for i := 1; i <= 2; i++ {
		if code, m := doJSON(t, srv, "POST", "/v1/campaigns", fmt.Sprintf(`{"machines":[1],"seed":%d}`, i)); code != http.StatusAccepted {
			t.Fatalf("POST %d: %d %v", i, code, m)
		}
	}

	// Backlog full: 429 with a depth-derived hint.
	r := httptest.NewRequest("POST", "/v1/campaigns", strings.NewReader(`{"machines":[1],"seed":9}`))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity POST: %d, want 429", w.Code)
	}
	hint, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil || hint < 1 || hint > 300 {
		t.Fatalf("Retry-After %q not a sane integer", w.Header().Get("Retry-After"))
	}
	// Two campaigns pending, one running slot: the hint must exceed the
	// empty-queue baseline.
	if base := retryAfterSecondsHint(0, 1); hint <= base {
		t.Errorf("hint %d does not reflect backlog (empty-queue baseline %d)", hint, base)
	}

	srv.beginDrain()
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest("POST", "/v1/campaigns", strings.NewReader(`{"machines":[1]}`)))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining POST: %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}

	out := scrape(t, srv, "/v1/metrics")
	for _, want := range []string{
		`dramdig_http_rejections_total{code="429"} 1`,
		`dramdig_http_rejections_total{code="503"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestHealthzBody: /v1/healthz answers with the probe fields a load
// balancer needs at the top level.
func TestHealthzBody(t *testing.T) {
	srv := newTestServer(t)
	code, m := doJSON(t, srv, "GET", "/v1/healthz", "")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/healthz: %d %v", code, m)
	}
	if m["status"] != "ok" {
		t.Errorf("status %v", m["status"])
	}
	if _, ok := m["queue_depth"].(float64); !ok {
		t.Errorf("queue_depth missing or non-numeric: %v", m["queue_depth"])
	}
	if _, ok := m["cache_entries"].(float64); !ok {
		t.Errorf("cache_entries missing or non-numeric: %v", m["cache_entries"])
	}
}

// TestSSEFanout: N concurrent subscribers all observe the terminal
// "done" event; a subscriber that disconnects mid-campaign neither
// blocks the campaign nor leaks the subscriber gauge.
func TestSSEFanout(t *testing.T) {
	srv := newTestServer(t)
	step := make(chan struct{})
	setRunner(srv, func(ctx context.Context, specs []campaign.Spec, cfg campaign.Config) (*campaign.Report, error) {
		cfg.OnEvent(campaign.Event{Kind: campaign.EventJobStarted, Job: "No.1", Index: 0})
		<-step
		cfg.OnEvent(campaign.Event{Kind: campaign.EventJobFinished, Job: "No.1", Index: 0, Match: true})
		return &campaign.Report{Total: 1, Succeeded: 1}, nil
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, m := doJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST: %d %v", code, m)
	}
	id := m["id"].(string)

	// Every subscriber must see the job_started event before the campaign
	// is released, so none of them races the terminal state.
	const subscribers = 5
	streams := make([]*http.Response, subscribers)
	for i := range streams {
		resp, err := http.Get(ts.URL + "/v1/campaigns/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		streams[i] = resp
	}
	waitGauge := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if srv.om.sseSubs.Value() == want {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("sse subscriber gauge stuck at %d, want %d", srv.om.sseSubs.Value(), want)
	}
	waitGauge(subscribers)

	// One subscriber walks away mid-campaign. The handler only notices on
	// its next write or context poll; the campaign must not care either way.
	streams[0].Body.Close()

	close(step)

	var wg sync.WaitGroup
	sawDone := make([]bool, subscribers)
	for i := 1; i < subscribers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sc := bufio.NewScanner(streams[i].Body)
			for sc.Scan() {
				if strings.HasPrefix(sc.Text(), "event: done") {
					sawDone[i] = true
				}
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("subscribers did not observe campaign completion")
	}
	for i := 1; i < subscribers; i++ {
		if !sawDone[i] {
			t.Errorf("subscriber %d never saw the done event", i)
		}
	}
	waitDone(t, srv, id)

	// All handlers — including the disconnected subscriber's — unwind and
	// the gauge returns to zero: no leak.
	waitGauge(0)
	io.Copy(io.Discard, streams[1].Body) // streams already closed; keep vet happy about bodies
}
