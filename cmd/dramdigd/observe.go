// dramdigd's observability layer: the HTTP middleware that gives every
// request an ID, a structured log line and per-route metrics; the
// server-level metric set (in-flight requests, SSE subscribers,
// backpressure rejections); and the dynamic Retry-After hint derived
// from queue depth. The metrics registry itself is wired in newServer —
// queue, store, engine and campaign layers register their families there
// and GET /v1/metrics (alias /metrics) renders them all.

package main

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"dramdig/internal/logging"
	"dramdig/internal/metrics"
	"dramdig/internal/obs"
)

// serverMetrics is the daemon's own metric set. The per-route request
// counters and duration histograms are registered lazily per (route,
// method, code) — Registry registration is idempotent, so the middleware
// just asks for the child it needs.
type serverMetrics struct {
	reg        *metrics.Registry
	inflight   *metrics.Gauge
	sseSubs    *metrics.Gauge
	sseDropped *metrics.Counter
}

const (
	helpRequests   = "HTTP requests by route, method and status code."
	helpDurations  = "HTTP request duration by route and method."
	helpRejections = "Requests refused for backpressure (429) or drain (503), by status code."
)

func newServerMetrics(r *metrics.Registry) *serverMetrics {
	m := &serverMetrics{
		reg: r,
		inflight: r.Gauge("dramdig_http_inflight",
			"HTTP requests currently being served.", nil),
		sseSubs: r.Gauge("dramdig_sse_subscribers",
			"Open SSE event-stream subscriptions.", nil),
		sseDropped: r.Counter("dramdig_sse_dropped_events_total",
			"SSE events not delivered because the subscriber's connection failed.", nil),
	}
	// The request families fill in lazily, but a scrape before the first
	// request should still see them: declare the empty families up front.
	r.Declare("dramdig_http_requests_total", helpRequests, "counter")
	r.Declare("dramdig_http_request_seconds", helpDurations, "histogram")
	r.Declare("dramdig_http_rejections_total", helpRejections, "counter")
	return m
}

// record accounts one finished request.
func (m *serverMetrics) record(route, method string, code int, dur time.Duration) {
	codeStr := strconv.Itoa(code)
	m.reg.Counter("dramdig_http_requests_total", helpRequests,
		metrics.Labels{"route": route, "method": method, "code": codeStr}).Inc()
	m.reg.Histogram("dramdig_http_request_seconds", helpDurations,
		metrics.DefSecondsBuckets(), metrics.Labels{"route": route, "method": method}).
		Observe(dur.Seconds())
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		m.reg.Counter("dramdig_http_rejections_total", helpRejections,
			metrics.Labels{"code": codeStr}).Inc()
	}
}

// statusWriter captures the response status for the middleware. Flushing
// is split into flushStatusWriter so the wrapped writer only advertises
// http.Flusher when the underlying connection actually supports it — the
// SSE handler's streaming-capability check stays honest.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

type flushStatusWriter struct{ *statusWriter }

func (w flushStatusWriter) Flush() {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.ResponseWriter.(http.Flusher).Flush()
}

// routeLabel turns the ServeMux pattern that matched ("GET
// /v1/campaigns/{id}") into a bounded-cardinality route label
// ("/v1/campaigns/{id}"). Unmatched requests — the mux's 404s — share
// one label instead of minting a family child per probed path.
func routeLabel(r *http.Request) string {
	pat := r.Pattern
	if pat == "" {
		return "unmatched"
	}
	if _, route, ok := strings.Cut(pat, " "); ok {
		return route
	}
	return pat
}

// observe wraps the daemon's mux with the request middleware: a request
// ID (client-supplied X-Request-Id honored, else minted) that travels
// through the context and echoes back in the response; a server span
// per request (joining the client's trace when it sent a W3C
// traceparent, minting a fresh one otherwise) whose traceparent echoes
// back so callers learn the trace ID; in-flight, count and duration
// metrics per route; and one structured log line per request, stamped
// with the span's trace_id/span_id when tracing is on.
func (s *server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := r.Header.Get("X-Request-Id")
		if reqID == "" || len(reqID) > 128 {
			reqID = s.ids.Next()
		}
		w.Header().Set("X-Request-Id", reqID)
		ctx := logging.WithRequestID(r.Context(), reqID)

		var span *obs.Span
		if s.tracer != nil {
			ctx = obs.WithTracer(ctx, s.tracer)
			if remote, ok := obs.Extract(r.Header); ok {
				ctx = obs.WithSpanContext(ctx, remote)
			}
			// Named after the matched route in the deferred block below —
			// the pattern isn't known until the mux has run.
			ctx, span = obs.Start(ctx, "http.request", obs.KV("request_id", reqID))
			w.Header().Set(obs.TraceParentHeader, span.Context().TraceParent())
		}
		r = r.WithContext(ctx)

		sw := &statusWriter{ResponseWriter: w}
		out := http.ResponseWriter(sw)
		if _, ok := w.(http.Flusher); ok {
			out = flushStatusWriter{sw}
		}

		s.om.inflight.Inc()
		start := time.Now()
		// The accounting is deferred so a panicking handler — which
		// net/http recovers per-connection — still decrements the
		// in-flight gauge and gets counted and logged.
		defer func() {
			dur := time.Since(start)
			s.om.inflight.Dec()

			if sw.status == 0 {
				// Handler wrote nothing; net/http sends 200 on return.
				sw.status = http.StatusOK
			}
			route := routeLabel(r)
			s.om.record(route, r.Method, sw.status, dur)
			attrs := []any{
				"method", r.Method,
				"route", route,
				"path", r.URL.Path,
				"status", sw.status,
				"duration_ms", float64(dur.Microseconds()) / 1000,
				"request_id", reqID,
			}
			if span != nil {
				span.SetName(r.Method + " " + route)
				span.SetAttr("route", route)
				span.SetAttrInt("status", int64(sw.status))
				span.End()
				sc := span.Context()
				attrs = append(attrs, "trace_id", sc.TraceID.String(), "span_id", sc.SpanID.String())
			}
			s.log.Info("request", attrs...)
		}()
		next.ServeHTTP(out, r)
	})
}

// retryAfterSecondsHint derives the Retry-After hint on 429/503 from the
// live backlog: with depth campaigns queued and workers draining them,
// a new submission waits roughly depth/workers campaign durations for a
// slot. perCampaignSeconds is a deliberately rough drain-rate estimate
// — the hint only needs the right order of magnitude, and the clamp
// keeps it a sane integer for clients that sleep on it verbatim.
func retryAfterSecondsHint(depth, workers int) int {
	const perCampaignSeconds = 5
	if workers < 1 {
		workers = 1
	}
	sec := (depth + workers) * perCampaignSeconds / workers
	if sec < 1 {
		sec = 1
	}
	if sec > 300 {
		sec = 300
	}
	return sec
}

// retryAfter returns the current Retry-After hint as a header value,
// from the workers live in the registry: the in-process ones plus the
// remote ones not yet reaped, so remote dispatch drains at its fleet's
// rate.
func (s *server) retryAfter() string {
	depth := s.q.StatsSnapshot().Pending
	return strconv.Itoa(retryAfterSecondsHint(depth, s.cl.liveWorkers()))
}
