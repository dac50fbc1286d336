package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dramdig/internal/core"
	"dramdig/internal/queue"
	"dramdig/internal/store"
	"dramdig/internal/trace"
)

// TestDaemonTraceEndpoint drives the full daemon-side trace loop: a
// traced campaign records its job's timing channel into the store, the
// trace endpoints serve it back, and the downloaded bytes replay offline
// to the identical mapping fingerprint the campaign reported.
func TestDaemonTraceEndpoint(t *testing.T) {
	st, err := store.Open(store.Config{}) // segments in memory
	if err != nil {
		t.Fatal(err)
	}
	q, err := queue.Open(queue.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	srv := newServer(ctx, st, q, serverConfig{workers: 2, tracing: true, maxRunning: defaultMaxRunning})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json",
		strings.NewReader(`{"machines":[4],"seed":42}`))
	if err != nil {
		t.Fatal(err)
	}
	var posted map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&posted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: %d %v", resp.StatusCode, posted)
	}
	id := posted["id"].(string)
	done := waitDone(t, srv, id)
	if done["status"] != "done" {
		t.Fatalf("campaign: %v", done)
	}
	job := done["report"].(map[string]any)["jobs"].([]any)[0].(map[string]any)
	wantFP := job["mapping_fingerprint"].(string)
	machineFP := job["machine_fingerprint"].(string)

	// Index: one job, trace available, self-describing URL.
	resp, err = http.Get(ts.URL + "/v1/campaigns/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var index struct {
		Tracing bool `json:"tracing"`
		Traces  []struct {
			Job                int    `json:"job"`
			Name               string `json:"name"`
			MachineFingerprint string `json:"machine_fingerprint"`
			Available          bool   `json:"available"`
			Bytes              int64  `json:"bytes"`
			URL                string `json:"url"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&index); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !index.Tracing || len(index.Traces) != 1 {
		t.Fatalf("trace index: %+v", index)
	}
	row := index.Traces[0]
	if !row.Available || row.Bytes <= 0 || row.MachineFingerprint != machineFP || row.URL == "" {
		t.Fatalf("trace row: %+v", row)
	}

	// Download the binary trace, both by campaign job and by content
	// address; they must be the same bytes.
	byJob := get(t, ts.URL+row.URL)
	byFP := get(t, ts.URL+"/v1/traces/"+machineFP)
	if !bytes.Equal(byJob, byFP) {
		t.Fatal("job download and content-addressed download differ")
	}

	// Offline replay of the downloaded trace reproduces the campaign's
	// recovered mapping exactly.
	tr, err := trace.Decode(bytes.NewReader(byJob))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header.Machine.Fingerprint != machineFP {
		t.Fatalf("trace keyed %s, want %s", tr.Header.Machine.Fingerprint, machineFP)
	}
	rep, err := trace.NewReplayer(tr, trace.Strict)
	if err != nil {
		t.Fatal(err)
	}
	tool, err := core.New(rep, core.Config{Seed: tr.Header.ToolSeed})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tool.Run()
	if err != nil {
		t.Fatalf("replay failed: %v (replayer: %v)", err, rep.Err())
	}
	if rep.Err() != nil {
		t.Fatalf("replay diverged: %v", rep.Err())
	}
	if got := res.Mapping.Fingerprint(); got != wantFP {
		t.Fatalf("replayed fingerprint %s, campaign reported %s", got, wantFP)
	}

	// Error surface: out-of-range job, unknown campaign, bad fingerprint.
	for _, path := range []string{
		"/v1/campaigns/" + id + "/trace?job=9",
		"/v1/campaigns/nope/trace",
		"/v1/traces/zz",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("GET %s unexpectedly succeeded", path)
		}
	}
}

// TestDaemonTracingDisabled: without -trace the endpoints answer but
// report nothing recorded.
func TestDaemonTracingDisabled(t *testing.T) {
	srv := newTestServer(t)
	code, m := doJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[4],"seed":42}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST: %d %v", code, m)
	}
	id := m["id"].(string)
	waitDone(t, srv, id)
	code, idx := doJSON(t, srv, "GET", "/v1/campaigns/"+id+"/trace", "")
	if code != http.StatusOK {
		t.Fatalf("GET trace index: %d %v", code, idx)
	}
	if idx["tracing"] != false {
		t.Fatalf("tracing reported on: %v", idx)
	}
	rows := idx["traces"].([]any)
	if len(rows) != 1 || rows[0].(map[string]any)["available"] != false {
		t.Fatalf("trace rows: %v", rows)
	}
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, data)
	}
	return data
}
