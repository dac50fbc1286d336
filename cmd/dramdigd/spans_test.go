// Tests for the daemon's tracing surface: the end-to-end span tree a
// real campaign produces under an inbound W3C traceparent, the debug
// ring endpoint, and the disabled-tracing error paths.

package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"dramdig/internal/logging"
	"dramdig/internal/obs"
	"dramdig/internal/queue"
)

// syncBuffer is a goroutine-safe bytes.Buffer: the worker goroutines
// log concurrently with the test body's reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// treeNames flattens a span tree response into the set of span names.
func treeNames(nodes []map[string]any, into map[string]bool) {
	for _, n := range nodes {
		if name, _ := n["name"].(string); name != "" {
			into[name] = true
		}
		if kids, ok := n["children"].([]any); ok {
			sub := make([]map[string]any, 0, len(kids))
			for _, k := range kids {
				if m, ok := k.(map[string]any); ok {
					sub = append(sub, m)
				}
			}
			treeNames(sub, into)
		}
	}
}

// treeTraceIDs collects every trace_id in the tree.
func treeTraceIDs(nodes []map[string]any, into map[string]bool) {
	for _, n := range nodes {
		if tid, _ := n["trace_id"].(string); tid != "" {
			into[tid] = true
		}
		if kids, ok := n["children"].([]any); ok {
			sub := make([]map[string]any, 0, len(kids))
			for _, k := range kids {
				if m, ok := k.(map[string]any); ok {
					sub = append(sub, m)
				}
			}
			treeTraceIDs(sub, into)
		}
	}
}

// TestSpanTreeEndToEnd drives one real campaign through the daemon with
// an inbound traceparent and checks the acceptance contract: the span
// tree is rooted at the client's trace ID and contains the queue,
// scheduler, campaign, engine-phase and store spans; the response
// echoed a traceparent on the same trace; and the campaign's structured
// log lines carry the matching trace_id.
func TestSpanTreeEndToEnd(t *testing.T) {
	var logBuf syncBuffer
	logger, err := logging.New(&logBuf, logging.FormatJSON, "info")
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServerWith(t, queue.Config{}, serverConfig{
		maxRunning: defaultMaxRunning,
		tracer:     obs.NewTracer(obs.Config{Capacity: 4096}),
		logger:     logger,
	})

	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	const inbound = "00-" + traceID + "-00f067aa0ba902b7-01"
	r := httptest.NewRequest("POST", "/v1/campaigns", strings.NewReader(`{"machines":[1],"seed":42}`))
	r.Header.Set(obs.TraceParentHeader, inbound)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	if w.Code != http.StatusAccepted {
		t.Fatalf("POST: %d %s", w.Code, w.Body.String())
	}
	echo := w.Header().Get(obs.TraceParentHeader)
	if !strings.HasPrefix(echo, "00-"+traceID+"-") {
		t.Errorf("response traceparent %q not on inbound trace %s", echo, traceID)
	}
	var created map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	id := created["id"].(string)
	waitDone(t, srv, id)

	code, tree := doJSON(t, srv, "GET", "/v1/campaigns/"+id+"/spans", "")
	if code != http.StatusOK {
		t.Fatalf("GET spans: %d %v", code, tree)
	}
	if got := tree["trace_id"]; got != traceID {
		t.Fatalf("span tree trace_id %v, want %s", got, traceID)
	}
	rawRoots, _ := tree["spans"].([]any)
	if len(rawRoots) == 0 {
		t.Fatalf("span tree empty: %v", tree)
	}
	roots := make([]map[string]any, 0, len(rawRoots))
	for _, n := range rawRoots {
		if m, ok := n.(map[string]any); ok {
			roots = append(roots, m)
		}
	}
	names := map[string]bool{}
	treeNames(roots, names)
	for _, want := range []string{
		"POST /v1/campaigns", // the server span, renamed after routing
		"queue.submit",
		"queue.wait",
		"scheduler.dispatch",
		"campaign.run",
		"campaign.job",
		"engine.calibrate",
		"engine.coarse",
		"engine.partition",
		"engine.resolve",
		"engine.fine",
		"store.read",
	} {
		if !names[want] {
			t.Errorf("span tree missing %q (have %v)", want, names)
		}
	}
	tids := map[string]bool{}
	treeTraceIDs(roots, tids)
	if len(tids) != 1 || !tids[traceID] {
		t.Errorf("span tree mixes trace IDs: %v", tids)
	}

	// The campaign's transition log lines carry the inbound trace ID.
	logs := logBuf.String()
	if !strings.Contains(logs, `"trace_id":"`+traceID+`"`) {
		t.Errorf("no log line carries trace_id %s:\n%s", traceID, logs)
	}

	// The debug ring serves recent spans plus tracer statistics.
	code, dbg := doJSON(t, srv, "GET", "/v1/debug/spans?limit=5", "")
	if code != http.StatusOK {
		t.Fatalf("GET debug spans: %d %v", code, dbg)
	}
	if spans, _ := dbg["spans"].([]any); len(spans) == 0 || len(spans) > 5 {
		t.Errorf("debug spans returned %d entries, want 1..5", len(spans))
	}
	stats, _ := dbg["stats"].(map[string]any)
	if fin, _ := stats["finished"].(float64); fin < 10 {
		t.Errorf("tracer stats report %v finished spans, want >= 10", stats["finished"])
	}
}

// TestSpansEndpointsDisabled: with tracing off (-trace-spans 0) the
// span endpoints answer 409 so clients can tell "tracing disabled" from
// "no spans recorded".
func TestSpansEndpointsDisabled(t *testing.T) {
	srv := newTestServer(t)
	stubRunner(t, srv)
	code, m := doJSON(t, srv, "POST", "/v1/campaigns", `{"machines":[1]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST: %d %v", code, m)
	}
	id := m["id"].(string)
	waitDone(t, srv, id)

	code, m = doJSON(t, srv, "GET", "/v1/campaigns/"+id+"/spans", "")
	if code != http.StatusConflict {
		t.Fatalf("GET spans with tracing off: %d %v, want 409", code, m)
	}
	code, m = doJSON(t, srv, "GET", "/v1/debug/spans", "")
	if code != http.StatusConflict {
		t.Fatalf("GET debug spans with tracing off: %d %v, want 409", code, m)
	}
}

// TestSpansUnknownCampaign: the spans endpoint 404s for IDs the daemon
// has never seen, before checking whether tracing is even on.
func TestSpansUnknownCampaign(t *testing.T) {
	srv := newTestServerWith(t, queue.Config{}, serverConfig{
		tracer: obs.NewTracer(obs.Config{Capacity: 16}),
	})
	code, m := doJSON(t, srv, "GET", "/v1/campaigns/c999/spans", "")
	if code != http.StatusNotFound {
		t.Fatalf("GET spans for unknown campaign: %d %v, want 404", code, m)
	}
}

// TestDebugSpansBadLimit: a non-numeric limit is a 400, not a silent
// default.
func TestDebugSpansBadLimit(t *testing.T) {
	srv := newTestServerWith(t, queue.Config{}, serverConfig{
		tracer: obs.NewTracer(obs.Config{Capacity: 16}),
	})
	code, m := doJSON(t, srv, "GET", "/v1/debug/spans?limit=bogus", "")
	if code != http.StatusBadRequest {
		t.Fatalf("GET debug spans with bad limit: %d %v, want 400", code, m)
	}
}

// TestSpanWorkerParentCycle: worker spans that name each other as
// parents must not send the timeline's worker attribution into endless
// recursion; an attributed ancestor outside the cycle still resolves.
func TestSpanWorkerParentCycle(t *testing.T) {
	id := func(s string) obs.SpanID {
		sid, err := obs.ParseSpanID(s)
		if err != nil {
			t.Fatal(err)
		}
		return sid
	}
	a := &obs.SpanData{SpanID: id("0000000000000001"), Parent: id("0000000000000002")}
	b := &obs.SpanData{SpanID: id("0000000000000002"), Parent: id("0000000000000001")}
	root := &obs.SpanData{SpanID: id("0000000000000003"), Attrs: []obs.Attr{obs.KV("worker", "w1")}}
	child := &obs.SpanData{SpanID: id("0000000000000004"), Parent: root.SpanID}
	byID := map[obs.SpanID]*obs.SpanData{a.SpanID: a, b.SpanID: b, root.SpanID: root, child.SpanID: child}
	memo := map[obs.SpanID]string{}
	if w := spanWorker(a, byID, memo); w != "" {
		t.Errorf("cycle resolved to worker %q", w)
	}
	if w := spanWorker(child, byID, memo); w != "w1" {
		t.Errorf("child of w1's span resolved to %q", w)
	}
}
