// Contract tests for the versioned daemon surface. Everything here is
// named TestV1* so CI can run the v1 contract in isolation
// (go test ./cmd/dramdigd -run TestV1): every /v1 route, the uniform
// error envelope, the pagination bounds and one live SSE progress
// stream.

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dramdig/internal/campaign"
	"dramdig/internal/queue"
	"dramdig/internal/store"
)

// stubRunner makes every campaign finish instantly with per-job events.
func stubRunner(t *testing.T, srv *server) {
	t.Helper()
	setRunner(srv, func(ctx context.Context, specs []campaign.Spec, cfg campaign.Config) (*campaign.Report, error) {
		for i, s := range specs {
			cfg.OnEvent(campaign.Event{Kind: campaign.EventJobStarted, Job: s.Name, Index: i})
			cfg.OnEvent(campaign.Event{Kind: campaign.EventJobFinished, Job: s.Name, Index: i, Match: true})
		}
		return &campaign.Report{Total: len(specs), Succeeded: len(specs)}, nil
	})
}

// envelope decodes and validates the uniform v1 error envelope.
func envelope(t *testing.T, body map[string]any, wantCode string) {
	t.Helper()
	e, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("error envelope missing or malformed: %v", body)
	}
	if got, _ := e["code"].(string); got != wantCode {
		t.Errorf("error code %q, want %q (%v)", got, wantCode, body)
	}
	if msg, _ := e["message"].(string); msg == "" {
		t.Errorf("error message empty: %v", body)
	}
}

// TestV1Routes table-drives every /v1 route's happy and error paths
// against a stubbed runner, asserting status codes and — for errors —
// the envelope contract.
func TestV1Routes(t *testing.T) {
	srv := newTestServer(t)
	stubRunner(t, srv)

	code, m := doJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1,2]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/campaigns: %d %v", code, m)
	}
	id, _ := m["id"].(string)
	if id == "" {
		t.Fatalf("no id in %v", m)
	}
	if u, _ := m["url"].(string); !strings.HasPrefix(u, "/v1/campaigns/") {
		t.Errorf("create url %q is not versioned", u)
	}
	if ev, _ := m["events"].(string); ev != "/v1/campaigns/"+id+"/events" {
		t.Errorf("events url %q", ev)
	}
	waitDone(t, srv, id)

	for _, tc := range []struct {
		method, path string
		want         int
		errCode      string // non-empty: assert the envelope
	}{
		{"GET", "/v1/campaigns", http.StatusOK, ""},
		{"GET", "/v1/campaigns/" + id, http.StatusOK, ""},
		{"GET", "/v1/campaigns/" + id + "/trace", http.StatusOK, ""},
		{"GET", "/v1/healthz", http.StatusOK, ""},
		{"GET", "/v1/campaigns/c999", http.StatusNotFound, "not_found"},
		{"GET", "/v1/campaigns/c999/events", http.StatusNotFound, "not_found"},
		{"GET", "/v1/campaigns/c999/trace", http.StatusNotFound, "not_found"},
		{"GET", "/v1/mappings/zz", http.StatusBadRequest, "bad_request"},
		{"GET", "/v1/mappings/" + strings.Repeat("a", 64), http.StatusNotFound, "not_found"},
		{"GET", "/v1/traces/zz", http.StatusBadRequest, "bad_request"},
		{"GET", "/v1/traces/" + strings.Repeat("a", 64), http.StatusNotFound, "not_found"},
		{"POST", "/v1/campaigns", http.StatusBadRequest, "bad_request"},
	} {
		body := ""
		if tc.method == "POST" {
			body = "{}"
		}
		code, m := doJSON(t, srv, tc.method, tc.path, body)
		if code != tc.want {
			t.Errorf("%s %s: %d (want %d): %v", tc.method, tc.path, code, tc.want, m)
			continue
		}
		if tc.errCode != "" {
			envelope(t, m, tc.errCode)
		}
	}
}

// TestV1ErrorEnvelope covers the remaining error classes: malformed
// bodies, job-count bombs and the queue-full rejection, each in the
// uniform envelope.
func TestV1ErrorEnvelope(t *testing.T) {
	srv := newTestServerWith(t, queue.Config{Capacity: 1}, serverConfig{maxRunning: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	setRunner(srv, func(ctx context.Context, specs []campaign.Spec, cfg campaign.Config) (*campaign.Report, error) {
		started <- struct{}{}
		<-release
		return &campaign.Report{Total: len(specs), Succeeded: len(specs)}, nil
	})
	defer close(release)

	for _, tc := range []struct {
		body string
		want string
	}{
		{"{not json", "bad_request"},
		{`{"machines":[12]}`, "bad_request"},
		{`{"generated":100000000}`, "bad_request"},
		{`{"custom":[{"standard":"DDR9"}]}`, "bad_request"},
	} {
		code, m := doJSON(t, srv, "POST", "/v1/campaigns", tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("POST %q: %d, want 400", tc.body, code)
			continue
		}
		envelope(t, m, tc.want)
	}

	// Occupy the single running slot, fill the single-entry backlog,
	// then assert the overload envelope on the 429.
	if code, m := doJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1]}`); code != http.StatusAccepted {
		t.Fatalf("POST running: %d %v", code, m)
	}
	<-started
	if code, m := doJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1]}`); code != http.StatusAccepted {
		t.Fatalf("POST queued: %d %v", code, m)
	}
	code, m := doJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1]}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity POST: %d %v", code, m)
	}
	envelope(t, m, "overloaded")
}

// TestV1Pagination: the campaign index pages newest-first with
// documented bounds — limit in [1,100] (default 20), offset >= 0.
func TestV1Pagination(t *testing.T) {
	srv := newTestServer(t)
	stubRunner(t, srv)
	const n = 25
	var ids []string
	for i := 0; i < n; i++ {
		code, m := doJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1]}`)
		if code != http.StatusAccepted {
			t.Fatalf("POST %d: %d %v", i, code, m)
		}
		ids = append(ids, m["id"].(string))
		waitDone(t, srv, m["id"].(string))
	}

	// Default page: 20 newest, total 25, next_offset 20.
	code, m := doJSON(t, srv, "GET", "/v1/campaigns", "")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/campaigns: %d %v", code, m)
	}
	page := m["campaigns"].([]any)
	if len(page) != defaultListLimit {
		t.Fatalf("default page has %d entries, want %d", len(page), defaultListLimit)
	}
	if m["total"].(float64) != n {
		t.Errorf("total %v, want %d", m["total"], n)
	}
	if m["next_offset"].(float64) != defaultListLimit {
		t.Errorf("next_offset %v, want %d", m["next_offset"], defaultListLimit)
	}
	first := page[0].(map[string]any)
	if first["id"] != ids[n-1] {
		t.Errorf("first listed campaign %v, want newest %s", first["id"], ids[n-1])
	}
	if first["status"] != "done" || first["url"] != "/v1/campaigns/"+ids[n-1] {
		t.Errorf("summary row: %v", first)
	}

	// Second page ends the listing without a next_offset.
	code, m = doJSON(t, srv, "GET", "/v1/campaigns?limit=20&offset=20", "")
	if code != http.StatusOK || len(m["campaigns"].([]any)) != n-defaultListLimit {
		t.Fatalf("second page: %d %v", code, m)
	}
	if _, present := m["next_offset"]; present {
		t.Error("final page advertises next_offset")
	}

	// Offset past the end is an empty page, not an error.
	code, m = doJSON(t, srv, "GET", "/v1/campaigns?offset=1000", "")
	if code != http.StatusOK || len(m["campaigns"].([]any)) != 0 {
		t.Fatalf("past-the-end page: %d %v", code, m)
	}

	// Bounds violations are bad_request in the envelope.
	for _, q := range []string{"limit=0", "limit=-3", "limit=101", "limit=abc", "offset=-1", "offset=x"} {
		code, m := doJSON(t, srv, "GET", "/v1/campaigns?"+q, "")
		if code != http.StatusBadRequest {
			t.Errorf("GET ?%s: %d, want 400 (%v)", q, code, m)
			continue
		}
		envelope(t, m, "bad_request")
	}
}

// TestV1Events consumes one SSE progress stream end to end: recorded
// events arrive first, live events as they happen, then the terminal
// "done" event closes the stream.
func TestV1Events(t *testing.T) {
	srv := newTestServer(t)
	step := make(chan struct{})
	setRunner(srv, func(ctx context.Context, specs []campaign.Spec, cfg campaign.Config) (*campaign.Report, error) {
		cfg.OnEvent(campaign.Event{Kind: campaign.EventJobStarted, Job: "No.1", Index: 0})
		<-step // hold the campaign open until the stream is attached
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

	req, err := http.NewRequest("GET", ts.URL+"/v1/campaigns/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events stream: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}

	type sseEvent struct {
		name string
		data map[string]any
	}
	events := make(chan sseEvent, 16)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		var name string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				var data map[string]any
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &data); err != nil {
					events <- sseEvent{name: "decode-error", data: map[string]any{"err": err.Error()}}
					return
				}
				events <- sseEvent{name: name, data: data}
			}
		}
	}()

	next := func(want string) sseEvent {
		t.Helper()
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("stream closed while waiting for %q", want)
			}
			if ev.name != want {
				t.Fatalf("event %q (%v), want %q", ev.name, ev.data, want)
			}
			return ev
		case <-time.After(10 * time.Second):
			t.Fatalf("no %q event within 10s", want)
		}
		panic("unreachable")
	}

	started := next(string(campaign.EventJobStarted))
	if started.data["job"] != "No.1" {
		t.Errorf("started event: %v", started.data)
	}
	close(step) // release the campaign: finish event + done must stream live
	next(string(campaign.EventJobFinished))
	done := next("done")
	if done.data["status"] != "done" || done.data["done"].(float64) != 1 {
		t.Errorf("done event: %v", done.data)
	}
	if _, ok := <-events; ok {
		t.Error("stream did not close after the done event")
	}
}

// TestV1EventsAfterCompletion: attaching to a finished campaign replays
// the recorded events and terminates immediately.
// TestV1TimelineKeepsNewestEvents: a timeline cut by ?limit keeps its
// newest events, so a finished campaign's terminal queue event survives
// the cut, and the response reports the cut and the full total.
func TestV1TimelineKeepsNewestEvents(t *testing.T) {
	srv := newTestServer(t)
	stubRunner(t, srv)
	code, m := doJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1,2]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST: %d %v", code, m)
	}
	id := m["id"].(string)
	waitDone(t, srv, id)

	_, full := doJSON(t, srv, "GET", "/v1/campaigns/"+id+"/timeline", "")
	all, _ := full["events"].([]any)
	if len(all) <= 2 || full["truncated"] != false || full["total"] != float64(len(all)) {
		t.Fatalf("full timeline: %d events, total %v, truncated %v", len(all), full["total"], full["truncated"])
	}
	code, cut := doJSON(t, srv, "GET", "/v1/campaigns/"+id+"/timeline?limit=2", "")
	if code != http.StatusOK {
		t.Fatalf("GET timeline?limit=2: %d %v", code, cut)
	}
	events, _ := cut["events"].([]any)
	if len(events) != 2 || cut["truncated"] != true || cut["total"] != full["total"] {
		t.Fatalf("cut timeline: %d events, total %v, truncated %v", len(events), cut["total"], cut["truncated"])
	}
	for i, e := range events {
		if want := all[len(all)-2+i]; fmt.Sprint(e) != fmt.Sprint(want) {
			t.Errorf("cut event %d = %v, want the full timeline's %v", i, e, want)
		}
	}
	if last := events[1].(map[string]any); last["source"] != "queue" || last["type"] != "done" {
		t.Errorf("last event %v, want the terminal queue event", last)
	}
}

func TestV1EventsAfterCompletion(t *testing.T) {
	srv := newTestServer(t)
	stubRunner(t, srv)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, m := doJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1,2]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST: %d %v", code, m)
	}
	id := m["id"].(string)
	waitDone(t, srv, id)

	resp, err := http.Get(ts.URL + fmt.Sprintf("/v1/campaigns/%s/events", id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var names []string
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: ") {
			names = append(names, strings.TrimPrefix(sc.Text(), "event: "))
		}
	}
	want := []string{"job_started", "job_finished", "job_started", "job_finished", "done"}
	if len(names) != len(want) {
		t.Fatalf("events %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("events %v, want %v", names, want)
		}
	}
}

// postJSON issues a request with headers and decodes the JSON response.
func postJSON(t *testing.T, srv http.Handler, method, path, body string, hdr map[string]string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var r *http.Request
	if body != "" {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	} else {
		r = httptest.NewRequest(method, path, nil)
	}
	for k, v := range hdr {
		r.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	var m map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatalf("%s %s: non-JSON response %q", method, path, w.Body.String())
	}
	return w, m
}

// TestV1Idempotency: resubmitting a campaign with the same
// Idempotency-Key returns the original campaign (marked as a replay)
// instead of enqueueing a duplicate.
func TestV1Idempotency(t *testing.T) {
	srv := newTestServer(t)
	stubRunner(t, srv)
	hdr := map[string]string{"Idempotency-Key": "nightly-sweep"}

	w1, m1 := postJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1,2]}`, hdr)
	if w1.Code != http.StatusAccepted {
		t.Fatalf("POST: %d %v", w1.Code, m1)
	}
	if w1.Header().Get("Idempotency-Replayed") != "" {
		t.Error("first submission marked as a replay")
	}
	id := m1["id"].(string)
	waitDone(t, srv, id)

	w2, m2 := postJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1,2]}`, hdr)
	if w2.Code != http.StatusAccepted || m2["id"] != id {
		t.Fatalf("duplicate POST: %d %v, want replay of %s", w2.Code, m2, id)
	}
	if w2.Header().Get("Idempotency-Replayed") != "true" {
		t.Error("replayed submission lacks Idempotency-Replayed header")
	}
	if m2["status"] != "done" {
		t.Errorf("replayed status %v, want the original's terminal status", m2["status"])
	}

	// A different key is a different campaign.
	_, m3 := postJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1,2]}`,
		map[string]string{"Idempotency-Key": "other"})
	if m3["id"] == id {
		t.Error("distinct keys shared a campaign")
	}
}

// TestV1QueueEndpoint: GET /v1/queue reports depth, running, capacity
// and the drain flag.
func TestV1QueueEndpoint(t *testing.T) {
	srv := newTestServerWith(t, queue.Config{Capacity: 7}, serverConfig{maxRunning: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	setRunner(srv, func(ctx context.Context, specs []campaign.Spec, cfg campaign.Config) (*campaign.Report, error) {
		started <- struct{}{}
		<-release
		return &campaign.Report{Total: len(specs), Succeeded: len(specs)}, nil
	})
	defer close(release)

	code, m := doJSON(t, srv, "GET", "/v1/queue", "")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/queue: %d %v", code, m)
	}
	if m["depth"].(float64) != 0 || m["capacity"].(float64) != 7 || m["running"].(float64) != 0 {
		t.Fatalf("idle queue: %v", m)
	}
	if m["draining"].(bool) || m["max_running"].(float64) != 1 || m["dispatch"] != "local" {
		t.Fatalf("idle queue: %v", m)
	}

	if code, _ := doJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1]}`); code != http.StatusAccepted {
		t.Fatal("POST")
	}
	<-started
	if code, _ := doJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1]}`); code != http.StatusAccepted {
		t.Fatal("POST")
	}
	_, m = doJSON(t, srv, "GET", "/v1/queue", "")
	if m["depth"].(float64) != 1 || m["running"].(float64) != 1 {
		t.Fatalf("busy queue: %v", m)
	}
}

// TestV1QueueRemoteDispatch: a daemon started with -max-running 0 runs
// no in-process worker, and /v1/queue and /v1/workers say so.
func TestV1QueueRemoteDispatch(t *testing.T) {
	srv := newTestServerWith(t, queue.Config{}, serverConfig{})
	code, m := doJSON(t, srv, "GET", "/v1/queue", "")
	if code != http.StatusOK || m["dispatch"] != "remote" || m["max_running"] != float64(0) {
		t.Fatalf("GET /v1/queue: %d %v", code, m)
	}
	code, m = doJSON(t, srv, "GET", "/v1/workers", "")
	if rows, _ := m["workers"].([]any); code != http.StatusOK || m["dispatch"] != "remote" || len(rows) != 0 {
		t.Fatalf("GET /v1/workers: %d %v, want remote dispatch and no local-* worker", code, m)
	}
}

// TestV1CancelCampaign: DELETE dequeues a queued campaign, stops a
// running one through its context at once, 409s on terminal ones and
// 404s on unknown IDs.
func TestV1CancelCampaign(t *testing.T) {
	srv := newTestServerWith(t, queue.Config{}, serverConfig{maxRunning: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	stopped := make(chan struct{}, 4)
	setRunner(srv, func(ctx context.Context, specs []campaign.Spec, cfg campaign.Config) (*campaign.Report, error) {
		started <- struct{}{}
		select {
		case <-release:
			return &campaign.Report{Total: len(specs), Succeeded: len(specs)}, nil
		case <-ctx.Done():
			stopped <- struct{}{}
			return &campaign.Report{Total: len(specs)}, ctx.Err()
		}
	})

	// One running campaign, one stuck behind it in the queue.
	code, m := doJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST: %d %v", code, m)
	}
	runningID := m["id"].(string)
	<-started
	code, m = doJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[2]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST: %d %v", code, m)
	}
	queuedID := m["id"].(string)

	// Cancel the queued one: immediate, terminal, never runs.
	code, m = doJSON(t, srv, "DELETE", "/v1/campaigns/"+queuedID, "")
	if code != http.StatusOK || m["status"] != "cancelled" {
		t.Fatalf("DELETE queued: %d %v", code, m)
	}
	if final := waitDone(t, srv, queuedID); final["status"] != "cancelled" {
		t.Errorf("queued campaign after cancel: %v", final["status"])
	}

	// Cancel the running one: context cancellation unwinds it, at once
	// rather than at the holder's next heartbeat.
	code, m = doJSON(t, srv, "DELETE", "/v1/campaigns/"+runningID, "")
	if code != http.StatusAccepted || m["status"] != "cancelling" {
		t.Fatalf("DELETE running: %d %v", code, m)
	}
	if final := waitDone(t, srv, runningID); final["status"] != "cancelled" {
		t.Errorf("running campaign after cancel: %v", final["status"])
	}
	await(t, stopped, 2*time.Second, "cancelled campaign's runner still running")

	// Terminal campaigns conflict; unknown IDs are not found.
	code, m = doJSON(t, srv, "DELETE", "/v1/campaigns/"+runningID, "")
	if code != http.StatusConflict {
		t.Fatalf("DELETE terminal: %d %v", code, m)
	}
	envelope(t, m, "conflict")
	code, m = doJSON(t, srv, "DELETE", "/v1/campaigns/c999", "")
	if code != http.StatusNotFound {
		t.Fatalf("DELETE unknown: %d %v", code, m)
	}
	envelope(t, m, "not_found")
	close(release)
}

// TestV1Draining: once the daemon begins its shutdown drain, new
// submissions get 503 + Retry-After while reads keep answering.
func TestV1Draining(t *testing.T) {
	srv := newTestServer(t)
	stubRunner(t, srv)
	code, m := doJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST: %d %v", code, m)
	}
	id := m["id"].(string)
	waitDone(t, srv, id)

	srv.beginDrain()
	w, m := postJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1]}`, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining: %d %v, want 503", w.Code, m)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	envelope(t, m, "draining")

	// Reads still answer during the drain.
	if code, _ := doJSON(t, srv, "GET", "/v1/campaigns/"+id, ""); code != http.StatusOK {
		t.Errorf("GET during drain: %d", code)
	}
	if code, qm := doJSON(t, srv, "GET", "/v1/queue", ""); code != http.StatusOK || qm["draining"] != true {
		t.Errorf("GET /v1/queue during drain: %d %v", code, qm)
	}
}

// replayEvents reads the SSE stream of a finished campaign to its end
// and returns each event as "name data".
func replayEvents(t *testing.T, url, id string) []string {
	t.Helper()
	resp, err := http.Get(url + "/v1/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events stream of %s: %d", id, resp.StatusCode)
	}
	var out []string
	var name string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			out = append(out, name+" "+strings.TrimPrefix(line, "data: "))
		}
	}
	return out
}

// TestV1EventsRemoteDispatch: a campaign run by a remote cluster.Worker
// records its per-job events like a local one. GET lists them, and the
// SSE stream replays job_started before job_finished for every job, then
// done — clients cannot tell which dispatch mode served them.
func TestV1EventsRemoteDispatch(t *testing.T) {
	srv := newTestServerWith(t, queue.Config{}, serverConfig{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	startWorker(t, ts.URL, "solo", 2)

	code, m := doJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1,4]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST: %d %v", code, m)
	}
	id := m["id"].(string)
	final := waitDone(t, srv, id)
	if final["status"] != "done" {
		t.Fatalf("remote campaign: %v", final)
	}
	if events, _ := final["events"].([]any); len(events) != 4 {
		t.Fatalf("GET lists %d events, want 4: %v", len(events), final["events"])
	}

	replay := replayEvents(t, ts.URL, id)
	if len(replay) != 5 || !strings.HasPrefix(replay[4], "done ") {
		t.Fatalf("SSE replay %v, want 4 job events then done", replay)
	}
	started := map[float64]bool{}
	finished := map[float64]bool{}
	for _, line := range replay[:4] {
		name, data, _ := strings.Cut(line, " ")
		var ev map[string]any
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("event %q: %v", line, err)
		}
		idx, _ := ev["index"].(float64)
		switch name {
		case string(campaign.EventJobStarted):
			started[idx] = true
		case string(campaign.EventJobFinished):
			if !started[idx] {
				t.Fatalf("job %v finished before it started: %v", idx, replay)
			}
			finished[idx] = true
		default:
			t.Fatalf("unexpected event %q", line)
		}
	}
	if len(started) != 2 || len(finished) != 2 {
		t.Fatalf("SSE replay %v, want each of 2 jobs started and finished", replay)
	}
}

// TestV1PriorityRemoteDispatch: remote workers lease in the queue's
// documented order, highest priority first and then the oldest
// submission, whichever worker asks. Three workers register before any
// campaign arrives; on a fresh server each, every one of them gets the
// priority-5 campaign and then the oldest priority-0 one.
func TestV1PriorityRemoteDispatch(t *testing.T) {
	workers := []string{"w1", "w2", "w3"}
	for _, worker := range workers {
		t.Run(worker, func(t *testing.T) {
			srv := newTestServerWith(t, queue.Config{}, serverConfig{})
			for _, w := range workers {
				if _, ok := leaseAs(t, srv, w); ok {
					t.Fatalf("%s leased from an empty queue", w)
				}
			}
			submit := func(body string) string {
				code, m := doJSON(t, srv, "POST", "/v1/campaigns", body)
				if code != http.StatusAccepted {
					t.Fatalf("POST %s: %d %v", body, code, m)
				}
				return m["id"].(string)
			}
			oldest := submit(`{"machines":[1]}`)
			for no := 2; no <= 8; no++ {
				submit(fmt.Sprintf(`{"machines":[%d]}`, no))
			}
			urgent := submit(`{"machines":[9],"priority":5}`)

			var got []string
			for range 2 {
				g, ok := leaseAs(t, srv, worker)
				if !ok {
					t.Fatalf("%s got no grant after %v", worker, got)
				}
				got = append(got, g.ID)
			}
			if want := []string{urgent, oldest}; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s leased %v, want %v", worker, got, want)
			}
		})
	}
}

// TestV1EventsSurviveRestart: a finished campaign's events outlive the
// daemon that ran it. After a restart over the same queue directory,
// GET and the SSE replay serve exactly the events they served before.
func TestV1EventsSurviveRestart(t *testing.T) {
	queueDir := t.TempDir()
	boot := func() (*server, *queue.Queue, context.CancelFunc) {
		st, err := store.Open(store.Config{})
		if err != nil {
			t.Fatal(err)
		}
		q, err := queue.Open(queue.Config{Dir: queueDir})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		return newServer(ctx, st, q, serverConfig{workers: 2, maxRunning: defaultMaxRunning}), q, cancel
	}

	srv1, q1, cancel1 := boot()
	stubRunner(t, srv1)
	code, m := doJSON(t, srv1, "POST", "/v1/campaigns", `{"machines":[1,2]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST: %d %v", code, m)
	}
	id := m["id"].(string)
	before := waitDone(t, srv1, id)
	ts1 := httptest.NewServer(srv1)
	replayBefore := replayEvents(t, ts1.URL, id)
	ts1.Close()
	cancel1()
	srv1.drain()
	if err := q1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, q2, cancel2 := boot()
	t.Cleanup(func() { cancel2(); q2.Close() })
	after := doJSONmap(t, srv2, "GET", "/v1/campaigns/"+id)
	wantEvents, _ := json.Marshal(before["events"])
	gotEvents, _ := json.Marshal(after["events"])
	if n, _ := before["events"].([]any); len(n) != 4 || string(gotEvents) != string(wantEvents) {
		t.Fatalf("events across restart:\nbefore %s\nafter  %s", wantEvents, gotEvents)
	}
	ts2 := httptest.NewServer(srv2)
	t.Cleanup(ts2.Close)
	replayAfter := replayEvents(t, ts2.URL, id)
	if fmt.Sprint(replayAfter) != fmt.Sprint(replayBefore) {
		t.Fatalf("SSE replay across restart:\nbefore %v\nafter  %v", replayBefore, replayAfter)
	}
}
